package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// template produces query texts of one shape. It draws its main
// literal or tag from u, uniform in [0, 1), and any further choice from
// r; a caller that spreads u over strata gets instances whose
// selectivities span the range the same way for every seed.
type template func(u float64, r *rand.Rand) string

func fixed(q string) template {
	return func(float64, *rand.Rand) string { return q }
}

// words is the XMark generator's text vocabulary, so contains() literals
// match real content.
var words = []string{
	"against", "ambitious", "answer", "bear", "brutus", "caesar", "cause",
	"censure", "country", "crown", "dead", "death", "did", "fault", "fortune",
	"friend", "glory", "grievous", "hath", "hear", "honour", "judge", "kill",
	"love", "lovers", "man", "men", "noble", "offence", "reply", "rome",
	"slew", "speak", "spoke", "tears", "valiant", "weep", "wisdom", "wrong",
}

// at picks the element of xs at quantile u.
func at[T any](xs []T, u float64) T { return xs[int(u*float64(len(xs)))] }

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// money is a literal at quantile u of the generator's price range
// (1.00–500.99).
func money(u float64) string {
	cents := 100 + int(u*50000)
	return fmt.Sprintf("%d.%02d", cents/100, cents%100)
}

// age is a literal at quantile u of the generator's age range (18–77).
func age(u float64) int { return 18 + int(u*60) }

// Following and preceding steps from a large context reduce to one
// context node and scan most of the document; the pairs keep the tag
// test selective so answers stay in the thousands.
var (
	followPairs = [][2]string{
		{"profile", "increase"}, {"open_auction", "happiness"}, {"person", "bidder"},
		{"item", "education"}, {"category", "age"}, {"mail", "gender"},
	}
	precedePairs = [][2]string{
		{"increase", "education"}, {"closed_auction", "bidder"}, {"seller", "profile"},
		{"bidder", "mail"}, {"open_auction", "keyword"}, {"person", "incategory"},
	}
	ancestorPairs = [][2]string{
		{"keyword", "item"}, {"education", "person"}, {"happiness", "closed_auction"},
		{"from", "mailbox"}, {"interest", "profile"}, {"increase", "open_auction"},
	}
)

// scanTemplates are the scan workload's query shapes. Together they
// cover the four partitioning axes (Q1, Q2, following, preceding),
// exists-semijoins, per-node predicates, value comparisons on the
// value index and on per-node programs, and contains(). Their number
// is odd, so the median of a class's latencies falls inside one
// template's share of the samples instead of on the edge between two.
var scanTemplates = []template{
	fixed("/descendant::profile/descendant::education"),
	fixed("/descendant::increase/ancestor::bidder"),
	func(u float64, _ *rand.Rand) string {
		p := at(ancestorPairs, u)
		return fmt.Sprintf("/descendant::%s/ancestor::%s", p[0], p[1])
	},
	func(u float64, _ *rand.Rand) string {
		p := at(followPairs, u)
		return fmt.Sprintf("/descendant::%s/following::%s", p[0], p[1])
	},
	func(u float64, _ *rand.Rand) string {
		p := at(precedePairs, u)
		return fmt.Sprintf("/descendant::%s/preceding::%s", p[0], p[1])
	},
	fixed("//bidder[descendant::increase]"),
	fixed("//open_auction[bidder/increase]//seller"),
	fixed("//person[profile/education]/name"),
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//open_auction[current > %d]", 1+int(u*500))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//closed_auction[price < %s]/buyer", money(u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//person[profile/age >= %d]/name", age(u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//item[contains(description, '%s')]/name", at(words, u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//mail[contains(text, '%s')]/from", at(words, u))
	},
}

// serveTemplates are the serve and churn workloads' query shapes: a
// large space of texts (literals and tags are seeded), so a Zipf draw
// over it yields both popular repeats and a steady share of new texts.
var serveTemplates = []template{
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//open_auction[current > %s]/seller", money(u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//open_auction[initial < %s]", money(u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//closed_auction[price >= %s]/buyer", money(u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//bidder[increase > %s]/personref", money(u))
	},
	func(u float64, _ *rand.Rand) string {
		return fmt.Sprintf("//person[profile/age > %d]/name", age(u))
	},
	func(u float64, r *rand.Rand) string {
		p := at([][2]string{{"item", "description"}, {"mail", "text"}, {"category", "description"},
			{"annotation", "description"}, {"item", "name"}, {"person", "name"}}, u)
		return fmt.Sprintf("//%s[contains(%s, '%s')]", p[0], p[1], pick(r, words))
	},
	func(u float64, _ *rand.Rand) string {
		p := at([][2]string{{"open_auction", "increase"}, {"people", "education"}, {"regions", "keyword"},
			{"person", "interest"}, {"closed_auction", "happiness"}, {"item", "mail"}}, u)
		return fmt.Sprintf("//%s//%s", p[0], p[1])
	},
	func(u float64, _ *rand.Rand) string {
		p := at([][2]string{{"bidder", "increase"}, {"person", "education"}, {"item", "keyword"},
			{"open_auction", "reserve"}, {"profile", "interest"}, {"annotation", "parlist"}}, u)
		return fmt.Sprintf("//%s[descendant::%s]", p[0], p[1])
	},
	func(u float64, _ *rand.Rand) string {
		p := at(ancestorPairs, u)
		return fmt.Sprintf("/descendant::%s/ancestor::%s", p[0], p[1])
	},
}

// isValueQuery reports whether a query has a comparison or contains()
// predicate, whose prepare consults the value index.
func isValueQuery(q string) bool {
	return strings.Contains(q, "contains(") || strings.ContainsAny(q, "<>=")
}

// distinctTexts draws up to n distinct texts from templates ts in
// round-robin order, skipping any text already in seen (which it
// extends). With strata > 0 the i-th text of a template takes u from
// stratum i mod strata, so its instances spread over the template's
// range; otherwise u is a plain draw. Templates with few distinct texts
// (fixed ones have one) simply stop contributing.
func distinctTexts(r *rand.Rand, ts []template, n, strata int, seen map[string]bool) []string {
	out := make([]string, 0, n)
	for attempt := 0; len(out) < n && attempt < 64*n*len(ts); attempt++ {
		u := r.Float64()
		if strata > 0 {
			u = (float64(attempt/len(ts)%strata) + u) / float64(strata)
		}
		q := ts[attempt%len(ts)](u, r)
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// zipfBlock returns a block of n ranks in [0, k) in seeded order, each
// rank i appearing in proportion to (i+1)^-s (largest remainder). Drawing
// a stream block by block keeps its popularity mix the same from seed to
// seed, where independent draws would vary it.
func zipfBlock(r *rand.Rand, n, k int, s float64) []int {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	left := n
	for i := range w {
		x := float64(n) * w[i] / total
		counts[i] = int(x)
		rem[i] = x - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, i)
		}
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
