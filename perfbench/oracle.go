package main

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// The oracle answers every question the benchmark checks by scanning the
// generated relation itself, with the acknowledged edits applied on top. It
// shares no code with the program: counts, measure sums, aggregate rows and
// closure are all recomputed here from the rows the benchmark generated.
// Per-value bitsets over the low-cardinality dimensions make the scan
// bit-parallel; high-cardinality dimensions are filtered row by row.

// star marks a wildcard dimension in a query vector.
const star int32 = -1

// maxIndexedCard bounds the dimensions that get per-value bitsets.
const maxIndexedCard = 256

// relation is a generated relation in row-major codes, with an optional
// measure column.
type relation struct {
	names []string
	nd    int
	cards []int
	data  []int32   // n*nd codes
	aux   []float64 // nil without a measure
}

func (r *relation) n() int            { return len(r.data) / r.nd }
func (r *relation) row(i int) []int32 { return r.data[i*r.nd : (i+1)*r.nd] }
func (r *relation) rows() [][]int32 {
	out := make([][]int32, r.n())
	for i := range out {
		out[i] = r.row(i)
	}
	return out
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }

// edit is one acknowledged mutation row: +1 for an append, -1 for a delete.
type edit struct {
	vals []int32
	aux  float64
	sign int64
}

// oracle scans rel plus edits. shards > 0 partitions rows by their
// dimension-0 value the way a sharded topology does (owner below).
type oracle struct {
	rel    *relation
	post   [][]bitset // post[d][v]; nil for dimensions above maxIndexedCard
	shards int
	shardB []bitset // rows owned by each shard
	edits  []edit
	acc    bitset // scratch
}

func newOracle(rel *relation, shards int) *oracle {
	o := &oracle{rel: rel, post: make([][]bitset, rel.nd), shards: shards, acc: newBitset(rel.n())}
	for d := 0; d < rel.nd; d++ {
		if rel.cards[d] > maxIndexedCard {
			continue
		}
		o.post[d] = make([]bitset, rel.cards[d])
		for v := range o.post[d] {
			o.post[d][v] = newBitset(rel.n())
		}
	}
	for i := 0; i < rel.n(); i++ {
		for d, v := range rel.row(i) {
			if o.post[d] != nil {
				o.post[d][v].set(i)
			}
		}
	}
	if shards > 0 {
		o.shardB = make([]bitset, shards)
		for s := range o.shardB {
			o.shardB[s] = newBitset(rel.n())
		}
		for i := 0; i < rel.n(); i++ {
			o.shardB[owner(rel.row(i)[0], shards)].set(i)
		}
	}
	return o
}

// owner is the shard of a dimension-0 code: FNV-1a (32-bit) of its decimal
// form modulo the shard count — the routing rule a sharded topology
// documents, restated here so the oracle does not call the program's.
func owner(v int32, shards int) int {
	h := uint32(2166136261)
	s := strconv.Itoa(int(v))
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

func covers(q, row []int32) bool {
	for d, v := range q {
		if v != star && row[d] != v {
			return false
		}
	}
	return true
}

// each calls fn for every row matching q (restricted to shard unless it is
// negative) with its multiplicity: base rows weigh 1, edits their sign.
func (o *oracle) each(q []int32, shard int, fn func(row []int32, w int64, aux float64)) {
	o.candidates(q, shard)
	nd := o.rel.nd
	for wi, word := range o.acc {
		for word != 0 {
			i := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			row := o.rel.data[i*nd : (i+1)*nd]
			if !covers(q, row) {
				continue
			}
			aux := 0.0
			if o.rel.aux != nil {
				aux = o.rel.aux[i]
			}
			fn(row, 1, aux)
		}
	}
	for _, e := range o.edits {
		if (shard < 0 || owner(e.vals[0], o.shards) == shard) && covers(q, e.vals) {
			fn(e.vals, e.sign, e.aux*float64(e.sign))
		}
	}
}

// candidates leaves in o.acc the base rows matching q on its indexed
// dimensions (and shard); each() filters the rest row by row.
func (o *oracle) candidates(q []int32, shard int) {
	first := true
	and := func(b bitset) {
		if first {
			copy(o.acc, b)
			first = false
			return
		}
		for i := range o.acc {
			o.acc[i] &= b[i]
		}
	}
	if shard >= 0 {
		and(o.shardB[shard])
	}
	for d, v := range q {
		if v == star || o.post[d] == nil {
			continue
		}
		if int(v) >= len(o.post[d]) {
			clear(o.acc)
			return
		}
		and(o.post[d][v])
	}
	if first {
		n := o.rel.n()
		for i := range o.acc {
			o.acc[i] = ^uint64(0)
		}
		if n%64 != 0 {
			o.acc[len(o.acc)-1] = (1 << uint(n%64)) - 1
		}
	}
}

// indexed reports whether every bound dimension of q has bitsets.
func (o *oracle) indexed(q []int32) bool {
	for d, v := range q {
		if v != star && o.post[d] == nil {
			return false
		}
	}
	return true
}

// count returns q's count and measure sum over shard (all rows when
// shard < 0).
func (o *oracle) count(q []int32, shard int) (int64, float64) {
	if o.rel.aux == nil && o.indexed(q) {
		// Every bound dimension has bitsets: the count is a popcount.
		o.candidates(q, shard)
		var n int64
		for _, w := range o.acc {
			n += int64(bits.OnesCount64(w))
		}
		for _, e := range o.edits {
			if (shard < 0 || owner(e.vals[0], o.shards) == shard) && covers(q, e.vals) {
				n += e.sign
			}
		}
		return n, 0
	}
	var n int64
	var sum float64
	o.each(q, shard, func(_ []int32, w int64, aux float64) {
		n += w
		sum += aux
	})
	return n, sum
}

// servedCount is what a topology of o.shards iceberg shards answers for a
// point query: each shard reports its own count when it reaches minsup, and
// a scattered query sums the shards that found the cell. With no shards it
// is the plain iceberg answer.
func (o *oracle) servedCount(q []int32, minsup int64) (int64, bool) {
	if o.shards == 0 || q[0] != star {
		n, _ := o.count(q, -1)
		return n, n > 0 && n >= minsup
	}
	var total int64
	found := false
	for s := 0; s < o.shards; s++ {
		n, _ := o.count(q, s)
		if n > 0 && n >= minsup {
			total += n
			found = true
		}
	}
	return total, found
}

// checkClosure verifies the method's closure property for an answer to q:
// the returned cell c covers q, carries q's count, and specialising any of
// its wildcard dimensions to any value lowers that count.
func (o *oracle) checkClosure(q, c []int32, count int64) error {
	if len(c) != len(q) {
		return fmt.Errorf("closure %v has %d dimensions, want %d", c, len(c), len(q))
	}
	for d, v := range q {
		if v != star && c[d] != v {
			return fmt.Errorf("closure %v does not cover query %v", c, q)
		}
	}
	hist := make([][]int64, len(c))
	for d, v := range c {
		if v == star {
			hist[d] = make([]int64, o.rel.cards[d])
		}
	}
	var n int64
	o.each(c, -1, func(row []int32, w int64, _ float64) {
		n += w
		for d, h := range hist {
			if h != nil {
				h[row[d]] += w
			}
		}
	})
	if n != count {
		return fmt.Errorf("closure %v has count %d, answer says %d", c, n, count)
	}
	for d, h := range hist {
		for v, k := range h {
			if k == count {
				return fmt.Errorf("closure %v is not closed: fixing dimension %d to %d keeps count %d", c, d, v, count)
			}
		}
	}
	return nil
}

// aggRow is one expected aggregate group.
type aggRow struct {
	count int64
	aux   float64
}

// aggregate groups the rows matching where (within shard unless it is
// negative) by the groupBy dimensions. Keys are the groups' codes joined by
// commas, in groupBy order.
func (o *oracle) aggregate(where []int32, groupBy []int, shard int) map[string]aggRow {
	out := map[string]aggRow{}
	var sb strings.Builder
	o.each(where, shard, func(row []int32, w int64, aux float64) {
		sb.Reset()
		for i, d := range groupBy {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(row[d])))
		}
		k := sb.String()
		a := out[k]
		a.count += w
		a.aux += aux
		out[k] = a
	})
	for k, a := range out {
		if a.count == 0 {
			delete(out, k)
		}
	}
	return out
}

// withEdits runs fn with the oracle's edits temporarily replaced.
func (o *oracle) withEdits(e []edit, fn func()) {
	saved := o.edits
	o.edits = e
	defer func() { o.edits = saved }()
	fn()
}

// mergeGroups adds b's groups into a copy of a.
func mergeGroups(a, b map[string]aggRow) map[string]aggRow {
	out := make(map[string]aggRow, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		g := out[k]
		g.count += v.count
		g.aux += v.aux
		out[k] = g
	}
	return out
}

// groupKey renders an answer row's group-by components the way aggregate
// keys them.
func groupKey(cell []string, groupBy []int) string {
	parts := make([]string, len(groupBy))
	for i, d := range groupBy {
		if d < len(cell) {
			parts[i] = cell[d]
		}
	}
	return strings.Join(parts, ",")
}

// compareAggregate checks an answer's rows against the expected groups.
func compareAggregate(want map[string]aggRow, got map[string]aggRow, withAux bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("group %s missing", k)
		}
		if g.count != w.count || (withAux && g.aux != w.aux) {
			return fmt.Errorf("group %s = (%d, %g), want (%d, %g)", k, g.count, g.aux, w.count, w.aux)
		}
	}
	return nil
}

// parseCell turns an answer's string components into codes ("*" = star).
func parseCell(comps []string) ([]int32, error) {
	out := make([]int32, len(comps))
	for i, s := range comps {
		if s == "*" {
			out[i] = star
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad cell component %q", s)
		}
		out[i] = int32(v)
	}
	return out, nil
}
