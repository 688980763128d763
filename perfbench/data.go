package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ccubing"
)

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s; s = 0 is
// uniform. Inverse-CDF sampling over the cumulative weights.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// share returns the probability mass of the first k ranks.
func (z *zipf) share(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(z.cdf) {
		k = len(z.cdf)
	}
	return z.cdf[k-1]
}

// zipfRelation generates n rows whose dimension d draws Zipf(skews[d]) ranks
// over cards[d] values, ranks mapped to codes by a seeded permutation. Every
// code of every dimension occurs at least once (the first rows cycle through
// them), so the relation's cardinalities are exactly cards.
func zipfRelation(seed int64, n int, cards []int, skews []float64) *relation {
	rng := rand.New(rand.NewSource(seed))
	nd := len(cards)
	rel := &relation{nd: nd, cards: append([]int(nil), cards...), data: make([]int32, n*nd)}
	for d := 0; d < nd; d++ {
		rel.names = append(rel.names, fmt.Sprintf("d%d", d))
		z := newZipf(rng, skews[d], cards[d])
		perm := rng.Perm(cards[d])
		for i := 0; i < n; i++ {
			v := perm[z.next()]
			if i < cards[d] {
				v = i
			}
			rel.data[i*nd+d] = int32(v)
		}
	}
	return rel
}

// weatherRelation is the weather-like relation (ccubing.Weather, the paper's
// SEP83L stand-in) copied into the benchmark's own rows, with a seeded
// integer-valued measure so that sums are exact in float64.
func weatherRelation(seed int64, n int) (*relation, error) {
	ds, err := ccubing.Weather(seed, n, 8)
	if err != nil {
		return nil, err
	}
	t := ds.Table()
	nd := t.NumDims()
	rel := &relation{
		names: append([]string(nil), t.Names...),
		nd:    nd,
		cards: make([]int, nd),
		data:  make([]int32, t.NumTuples()*nd),
		aux:   make([]float64, t.NumTuples()),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < t.NumTuples(); i++ {
		for d := 0; d < nd; d++ {
			v := t.Cols[d][i]
			rel.data[i*nd+d] = v
			if int(v) >= rel.cards[d] {
				rel.cards[d] = int(v) + 1
			}
		}
		rel.aux[i] = float64(rng.Intn(1000))
	}
	return rel, nil
}

// dataset hands the program the generated rows (and measure) and nothing
// else.
func (r *relation) dataset() (*ccubing.Dataset, error) {
	ds, err := ccubing.NewDatasetFromValues(r.names, r.rows())
	if err != nil {
		return nil, err
	}
	if r.aux != nil {
		if err := ds.SetMeasure(append([]float64(nil), r.aux...)); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// pointKey derives a query cell from a random row: each dimension is
// wildcarded with probability pWild, so the cell is never empty.
func pointKey(rng *rand.Rand, rel *relation, pWild float64) []int32 {
	row := rel.row(rng.Intn(rel.n()))
	q := make([]int32, rel.nd)
	for d := range q {
		q[d] = row[d]
		if rng.Float64() < pWild {
			q[d] = star
		}
	}
	return q
}

// keyURL renders a query cell as /v1/query's values= parameter.
func keyValues(q []int32) string {
	b := make([]byte, 0, 4*len(q))
	for d, v := range q {
		if d > 0 {
			b = append(b, ',')
		}
		b = append(b, itoa(int(v))...)
	}
	return string(b)
}

// whereParam renders a query cell as /v1/aggregate's where= parameter.
func whereParam(q []int32) string {
	b := make([]byte, 0, 4*len(q))
	for d, v := range q {
		if d > 0 {
			b = append(b, ',')
		}
		if v == star {
			b = append(b, '*')
		} else {
			b = append(b, itoa(int(v))...)
		}
	}
	return string(b)
}
