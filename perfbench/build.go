package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ccubing"
)

// The build workload: the operation the paper measures. Repeated
// Materialize -> Save -> LoadCube on the weather-like relation with a sum
// measure at an iceberg minsup, every other option at its default. Nothing
// is served over HTTP, cached across loads or written to a WAL.
const (
	buildRows      = 50000
	buildMinSup    = 8
	buildSetups    = 3
	buildLoads     = 4    // LoadCube calls per iteration
	buildReads     = 1000 // point lookups on each freshly loaded cube
	buildAggs      = 20   // aggregates on each freshly loaded cube
	buildGroupDim  = 4    // "weather" code
	buildAppends   = 4    // append batches folded into each build by Refresh
	buildBatchRows = 50
)

func runBuild(r *run) error {
	opt := ccubing.Options{MinSup: buildMinSup, Measure: ccubing.MeasureSum}

	// Set-up: generate the relation and run one untimed warm-up build, so the
	// timed builds do not pay first-use costs. Repeated for a steady median.
	var rel *relation
	var ds *ccubing.Dataset
	var setups samples
	for i := 0; i < buildSetups; i++ {
		runtime.GC()
		var err error
		d := timed(func() {
			if rel, err = weatherRelation(r.seed, buildRows); err != nil {
				return
			}
			if ds, err = rel.dataset(); err != nil {
				return
			}
			_, err = ccubing.Materialize(ds, opt)
		})
		if err != nil {
			return err
		}
		setups.add(d)
	}
	r.set("setup_s", setups.median())
	orc := newOracle(rel, 0)
	rng := rand.New(rand.NewSource(r.seed*7919 + 17))
	groupBy := []string{rel.names[buildGroupDim]}

	var (
		builds, tracedBuilds, loads, recovers, saves, qlat, alat samples
		allocs, snaps                                            []float64
		layers                                                   []buildLayers
		facadeQ, facadeQC, facadeA                               []float64
		readSecs                                                 float64
		reads                                                    int
		hits, misses, evictions                                  int64
		lastSnap                                                 []byte
	)
	b := &buildMaint{r: r, rel: rel, orc: orc, rng: rng}
	tracedFrom := time.Now().Add(r.seconds * 2 / 5)
	deadline := time.Now().Add(r.seconds)
	gc0, met0 := readMem(), processMetrics()
	for iter := 0; iter < 3 || time.Now().Before(deadline); iter++ {
		traced := r.trace && iter >= 2 && time.Now().After(tracedFrom)
		runtime.GC()
		m0 := readMem()
		var cube *ccubing.Cube
		var err error
		d := timed(func() { cube, err = ccubing.Materialize(ds, opt) })
		r.op(err != nil)
		if err != nil {
			return fmt.Errorf("materialize: %w", err)
		}
		allocs = append(allocs, mb(readMem().totalAlloc-m0.totalAlloc))
		if traced {
			tracedBuilds.add(d)
		} else {
			builds.add(d)
		}

		var buf bytes.Buffer
		saves.add(timed(func() { err = cube.Save(&buf) }))
		r.op(err != nil)
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		snaps = append(snaps, mb(uint64(buf.Len())))

		keys := make([][]int32, buildReads)
		for i := range keys {
			keys[i] = pointKey(rng, rel, 0.5)
		}
		var loaded *ccubing.Cube
		for j := 0; j < buildLoads; j++ {
			start := time.Now()
			loaded, err = ccubing.LoadCube(bytes.NewReader(buf.Bytes()))
			loads.add(time.Since(start))
			r.op(err != nil)
			if err != nil {
				return fmt.Errorf("load: %w", err)
			}
			if j == 0 {
				// Recovery from a snapshot ends when the cube answers.
				loaded.Query(keys[0])
				recovers.add(time.Since(start))
			}
		}

		// First reads against the freshly loaded snapshot.
		type lookup struct {
			cell ccubing.Cell
			ok   bool
		}
		got := make([]lookup, len(keys))
		start := time.Now()
		for i, k := range keys {
			t := time.Now()
			c, ok := loaded.Lookup(k)
			qlat.add(time.Since(t))
			got[i] = lookup{ccubing.Cell{Values: append([]int32(nil), c.Values...), Count: c.Count, Aux: c.Aux}, ok}
		}
		readSecs += time.Since(start).Seconds()
		reads += len(keys)
		aggWhere := make([][]int32, buildAggs)
		aggGot := make([][]ccubing.Cell, buildAggs)
		aggExact := make([]bool, buildAggs)
		for i := range aggWhere {
			w := make([]int32, rel.nd)
			for d := range w {
				w[d] = star
			}
			w[0] = rel.row(rng.Intn(rel.n()))[0]
			aggWhere[i] = w
			spec, err := loaded.ParseSpec(whereStrings(w))
			if err != nil {
				return err
			}
			t := time.Now()
			aggGot[i], aggExact[i], err = loaded.Aggregate(spec, ccubing.AggregateOptions{GroupBy: groupBy})
			alat.add(time.Since(t))
			r.op(err != nil)
		}
		h, m := loaded.QueryCacheMetrics()
		hits, misses, evictions = hits+h, misses+m, evictions+loaded.QueryCacheEvictions()

		// Checks, outside the timed sections.
		for i, k := range keys {
			n, sum := orc.count(k, -1)
			g := got[i]
			switch {
			case g.ok != (n >= buildMinSup):
				r.wrong("build lookup %v: found=%v, oracle count %d at minsup %d", k, g.ok, n, buildMinSup)
			case g.ok && (g.cell.Count != n || g.cell.Aux != sum):
				r.wrong("build lookup %v = (%d, %g), oracle (%d, %g)", k, g.cell.Count, g.cell.Aux, n, sum)
			case g.ok && i%10 == 0:
				if err := orc.checkClosure(k, g.cell.Values, n); err != nil {
					r.wrong("build lookup %v: %v", k, err)
				}
			}
		}
		for i, w := range aggWhere {
			want := orc.aggregate(w, []int{buildGroupDim}, -1)
			if !aggExact[i] {
				r.wrong("build aggregate %v: exact=false", w)
			}
			if err := compareAggregate(want, cellGroups(aggGot[i], []int{buildGroupDim}), true); err != nil {
				r.wrong("build aggregate %v: %v", w, err)
			}
		}

		if traced {
			l, err := measureBuildLayers(ds, opt)
			if err != nil {
				return err
			}
			layers = append(layers, l)
			q, qc, a, err := facadeReads(loaded, keys, aggWhere, groupBy)
			if err != nil {
				return err
			}
			facadeQ, facadeQC, facadeA = append(facadeQ, q), append(facadeQC, qc), append(facadeA, a)
		}
		if err := b.maintain(cube); err != nil {
			return err
		}
		lastSnap = buf.Bytes()
	}
	gc1, met1 := readMem(), processMetrics()

	// Heap one loaded snapshot keeps.
	h0 := liveHeap()
	held, err := ccubing.LoadCube(bytes.NewReader(lastSnap))
	if err != nil {
		return err
	}
	h1 := liveHeap()
	runtime.KeepAlive(held)
	runtime.KeepAlive(lastSnap)

	allBuilds := append(append(samples(nil), builds...), tracedBuilds...)
	r.set("build_s", allBuilds.median())
	r.set("build_alloc_mb", medianOf(allocs))
	r.set("snapshot_mb", medianOf(snaps))
	r.set("load_s", loads.median())
	r.set("live_heap_mb", mb(h1-h0))
	r.set("query_p50_ms", qlat.median()*1e3)
	r.set("query_p90_ms", qlat.quantile(0.9)*1e3)
	r.set("tail.query_p99_ms", qlat.chunkedP99()*1e3)
	r.set("aggregate_p50_ms", alat.median()*1e3)
	r.set("read_rps", float64(reads)/readSecs)
	r.set("append_p50_ms", b.appends.median()*1e3)
	r.set("refresh_s", b.refreshes.median())
	r.set("recover_s", recovers.median())
	r.logf("build: %d builds, %d loads, %d reads, %d cells", len(allBuilds), len(loads), reads, held.NumCells())

	if r.trace {
		l := medianLayers(layers)
		r.setBuildLayers(l, tracedBuilds.median())
		r.set("ccubing.save_s", saves.median())
		r.set("ccubing.query_us", medianOf(facadeQ))
		r.set("ccubing.query_cached_us", medianOf(facadeQC))
		r.set("ccubing.aggregate_ms", medianOf(facadeA))
		if hits+misses > 0 {
			r.set("qcache.hit_ratio", float64(hits)/float64(hits+misses))
		}
		r.set("qcache.evictions", float64(evictions))
		r.setProbeLayer(met0, met1)
		r.setRefreshLayer(b.stats)
		r.setGC(gc0, gc1)
		r.set("trace.coverage", l.total()/tracedBuilds.median())
		r.set("trace.overhead", tracedBuilds.median()/builds.median())
		r.zeroLayers(perLayerNames()...)
	}
	return nil
}

// buildMaint folds appends into each fresh build: the incremental path
// (Append, then a partition-scoped Refresh) next to the full Materialize.
type buildMaint struct {
	r                  *run
	rel                *relation
	orc                *oracle
	rng                *rand.Rand
	appends, refreshes samples
	stats              []ccubing.RefreshStats
}

func (b *buildMaint) maintain(cube *ccubing.Cube) error {
	r, rel, orc, rng := b.r, b.rel, b.orc, b.rng
	recent := int32(rel.cards[0] - 1)
	var added [][]int32
	for i := 0; i < buildAppends; i++ {
		rows := make([][]int32, buildBatchRows)
		aux := make([]float64, buildBatchRows)
		for i := range rows {
			rows[i] = append([]int32(nil), rel.row(rng.Intn(rel.n()))...)
			rows[i][0] = recent - int32(rng.Intn(2))
			aux[i] = float64(rng.Intn(1000))
			orc.edits = append(orc.edits, edit{vals: rows[i], aux: aux[i], sign: 1})
		}
		var err error
		b.appends.add(timed(func() { _, err = cube.AppendValues(rows, aux) }))
		r.op(err != nil)
		if err != nil {
			return fmt.Errorf("append: %w", err)
		}
		added = append(added, rows...)
	}
	var st ccubing.RefreshStats
	var err error
	b.refreshes.add(timed(func() { st, err = cube.Refresh() }))
	r.op(err != nil)
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	b.stats = append(b.stats, st)
	for i := 0; i < 40; i++ {
		var k []int32
		if i%2 == 0 {
			k = append([]int32(nil), added[rng.Intn(len(added))]...)
			for d := 1; d < len(k); d++ {
				if rng.Intn(2) == 0 {
					k[d] = star
				}
			}
		} else {
			k = pointKey(rng, rel, 0.5)
		}
		c, ok := cube.Lookup(k)
		n, sum := orc.count(k, -1)
		if ok != (n >= buildMinSup) || (ok && (c.Count != n || c.Aux != sum)) {
			r.wrong("refreshed lookup %v = (%v, %d, %g), oracle (%d, %g)", k, ok, c.Count, c.Aux, n, sum)
		}
	}
	orc.edits = nil // the next build starts from the base relation again
	return nil
}

// cellGroups keys a facade aggregate's rows like oracle.aggregate.
func cellGroups(rows []ccubing.Cell, groupBy []int) map[string]aggRow {
	out := map[string]aggRow{}
	for _, c := range rows {
		comps := whereStrings(c.Values)
		out[groupKey(comps, groupBy)] = aggRow{count: c.Count, aux: c.Aux}
	}
	return out
}

// setRefreshLayer reports the refresh breakdown from the program's own
// per-refresh statistics.
func (r *run) setRefreshLayer(stats []ccubing.RefreshStats) {
	var el, parts, cells []float64
	for _, s := range stats {
		el = append(el, s.Elapsed.Seconds())
		if s.PartitionsTotal > 0 {
			parts = append(parts, float64(s.PartitionsRecomputed)/float64(s.PartitionsTotal))
		}
		if tot := s.CellsRetained + s.CellsRebuilt; tot > 0 {
			cells = append(cells, float64(s.CellsRebuilt)/float64(tot))
		}
	}
	r.set("refresh.worker_refresh_s", medianOf(el))
	r.set("refresh.partitions_share", medianOf(parts))
	r.set("refresh.cells_rebuilt_share", medianOf(cells))
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, d := range perLayer {
		out[i] = d.name
	}
	return out
}
