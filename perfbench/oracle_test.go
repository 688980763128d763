package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ccubing"
)

// bruteCount counts q over rows with a plain loop.
func bruteCount(rel *relation, edits []edit, q []int32, shard int) int64 {
	var n int64
	for i := 0; i < rel.n(); i++ {
		row := rel.row(i)
		if covers(q, row) && (shard < 0 || owner(row[0], 2) == shard) {
			n++
		}
	}
	for _, e := range edits {
		if covers(q, e.vals) && (shard < 0 || owner(e.vals[0], 2) == shard) {
			n += e.sign
		}
	}
	return n
}

func testRelation() *relation {
	return zipfRelation(3, 3000, []int{9, 7, 300, 5}, []float64{0, 1.1, 0.5, 1.3})
}

func TestOracleCountsMatchBruteForce(t *testing.T) {
	rel := testRelation()
	orc := newOracle(rel, 2)
	orc.edits = []edit{{vals: []int32{8, 1, 2, 3}, sign: 1}, {vals: []int32{8, 1, 2, 3}, sign: 1}, {vals: rel.row(5), sign: -1}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		q := pointKey(rng, rel, 0.5)
		for shard := -1; shard < 2; shard++ {
			got, _ := orc.count(q, shard)
			if want := bruteCount(rel, orc.edits, q, shard); got != want {
				t.Fatalf("count(%v, shard %d) = %d, want %d", q, shard, got, want)
			}
		}
	}
}

// TestChecksAcceptTheProgram runs the oracle's method checks against a cube
// the program materializes: correct answers must pass.
func TestChecksAcceptTheProgram(t *testing.T) {
	rel := testRelation()
	ds, err := rel.dataset()
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(rel, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		q := pointKey(rng, rel, 0.5)
		c, ok := cube.Lookup(q)
		n, _ := orc.count(q, -1)
		if !ok || c.Count != n {
			t.Fatalf("lookup %v = (%v, %d), oracle %d", q, ok, c.Count, n)
		}
		if err := orc.checkClosure(q, c.Values, n); err != nil {
			t.Fatalf("lookup %v: %v", q, err)
		}
	}
	where := []int32{2, star, star, star}
	spec, _ := cube.ParseSpec(whereStrings(where))
	rows, exact, err := cube.Aggregate(spec, ccubing.AggregateOptions{GroupBy: []string{"d1"}})
	if err != nil || !exact {
		t.Fatal(err, exact)
	}
	if err := compareAggregate(orc.aggregate(where, []int{1}, -1), cellGroups(rows, []int{1}), false); err != nil {
		t.Fatal(err)
	}
}

// TestChecksRejectCorruptAnswers feeds every check a corrupted answer.
func TestChecksRejectCorruptAnswers(t *testing.T) {
	rel := testRelation()
	ds, err := rel.dataset()
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(rel, 0)
	q := append([]int32(nil), rel.row(0)...)
	q[1], q[2] = star, star
	c, _ := cube.Lookup(q)
	n, _ := orc.count(q, -1)

	if orc.checkClosure(q, c.Values, n+1) == nil {
		t.Error("closure check accepted a wrong count")
	}
	if orc.checkClosure(q, q, n) == nil && !equal(q, c.Values) {
		t.Error("closure check accepted the unclosed query cell as its own closure")
	}
	other := append([]int32(nil), c.Values...)
	other[0] = (other[0] + 1) % int32(rel.cards[0])
	if orc.checkClosure(q, other, n) == nil {
		t.Error("closure check accepted a cell that does not cover the query")
	}

	// A served point answer off by one, through the serve_read check.
	keys := [][]int32{q}
	r := &run{values: map[string]float64{}}
	r.checkServeAnswers(orc, keys, []srAnswer{{key: 0, q: queryAnswer{Found: true, Count: n + 1}}})
	if len(r.problems) == 0 {
		t.Error("serve check accepted a wrong count")
	}
	r = &run{values: map[string]float64{}}
	r.checkServeAnswers(orc, keys, []srAnswer{{key: 0, q: queryAnswer{Found: true, Count: n}}})
	if len(r.problems) != 0 {
		t.Errorf("serve check rejected a right count: %v", r.problems)
	}

	// An aggregate with one group's count changed, or one group missing.
	where := []int32{star, star, star, 2}
	want := orc.aggregate(where, []int{0}, -1)
	bad := map[string]aggRow{}
	for k, v := range want {
		bad[k] = v
	}
	for k, v := range bad {
		v.count++
		bad[k] = v
		break
	}
	if compareAggregate(want, bad, false) == nil {
		t.Error("aggregate check accepted a wrong group count")
	}
	for k := range bad {
		delete(bad, k)
		break
	}
	if compareAggregate(want, bad, false) == nil {
		t.Error("aggregate check accepted a missing group")
	}
	r = &run{values: map[string]float64{}}
	r.checkServeAnswers(orc, keys, []srAnswer{{agg: true, key: 2, a: aggregateAnswer{Exact: false}}})
	if len(r.problems) == 0 {
		t.Error("serve check accepted an inexact, empty aggregate")
	}

	// Routed answers: a sharded iceberg topology.
	rorc := newOracle(rel, 2)
	s := &rmState{orc: rorc}
	wq := append([]int32(nil), q...)
	wq[0] = star
	for _, qq := range [][]int32{q, wq} {
		cur := [][]edit{nil}
		var total int64
		found := false
		for sh := 0; sh < 2; sh++ {
			if qq[0] != star && owner(qq[0], 2) != sh {
				continue
			}
			if k := bruteCount(rel, nil, qq, sh); k >= rmMinSup {
				total += k
				found = true
			}
		}
		if !s.pointMatches(qq, queryAnswer{Found: found, Count: total}, cur) {
			t.Errorf("routed check rejected the right answer for %v", qq)
		}
		if s.pointMatches(qq, queryAnswer{Found: true, Count: total + 1}, cur) {
			t.Errorf("routed check accepted a wrong count for %v", qq)
		}
	}
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists here
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %d", strings.Join(names, ","), len(workloads))
	}
}
