package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ccubing"
)

// The routed_mixed workload: the write path and the router. Two shard
// workers (iceberg minsup, so each store carries its residual; a WAL each)
// behind a router. A writer appends fixed-size batches on a few "recent"
// dimension-0 partitions, deletes some rows it appended, and refreshes
// through the router after each window; a reader meanwhile sends
// dimension-0-bound and wildcard point queries and scattered aggregates on
// uniform keys. Each round ends with a graceful restart of both workers,
// booted again from the data source and the same WAL, after which every
// acknowledged mutation batch of the round is checked.
const (
	rmRows     = 40000
	rmDims     = 5
	rmCard0    = 32
	rmCard     = 24
	rmSkew     = 1.0
	rmMinSup   = 4
	rmShards   = 2
	rmWindows  = 3  // per round; every window but the last ends in a refresh
	rmAppends  = 4  // append batches per window
	rmTuples   = 30 // distinct tuples per append batch
	rmDoubled  = 10 // of which appended twice
	rmDeletes  = 16 // rows per delete batch (one copy of a doubled tuple each)
	rmReads    = 200
	rmBeside   = 20 // of which start together with a refresh
	rmAggEvery = 10
	rmSetups   = 3
	rmLoads    = 5
	rmChecks   = 20 // point queries checked after each refresh
	rmGroupDim = 3
)

// rmTopo is the running topology.
type rmTopo struct {
	workers []*node
	router  *node
	wals    []string
}

func (t *rmTopo) stop() {
	if t.router != nil {
		t.router.stop()
	}
	for _, w := range t.workers {
		w.stop()
	}
}

// rmBatch is one acknowledged (or refused) mutation batch.
type rmBatch struct {
	del    bool
	rows   [][]int32
	tuples [][]int32 // distinct tuples whose served counts show the batch
	window int
	err    error
}

// rmRead is one reader request: kind 0 is a dimension-0-bound point query,
// 1 a wildcard-dimension-0 point query, 2 a scattered aggregate.
type rmRead struct {
	kind int
	q    []int32
	qa   queryAnswer
	aa   aggregateAnswer
	err  error
	t    reqTiming
}

// rmTally counts what the harness sent, per node and endpoint, to compare
// with the program's own counters.
type rmTally struct {
	router    map[string]int
	worker    [rmShards]map[string]int
	scatters  int
	pending   [rmShards]int // rows buffered since the worker's last refresh
	refreshes [rmShards]int
	wal       int
}

func newTally() *rmTally {
	t := &rmTally{router: map[string]int{}}
	for i := range t.worker {
		t.worker[i] = map[string]int{}
	}
	return t
}

func (t *rmTally) read(q []int32, agg bool) {
	ep := "query"
	if agg {
		ep = "aggregate"
	}
	t.router[ep]++
	if q[0] == star {
		t.scatters++
		for i := range t.worker {
			t.worker[i][ep]++
		}
	} else {
		t.worker[owner(q[0], rmShards)][ep]++
	}
}

func (t *rmTally) mutation(ep string, rows [][]int32) {
	t.router[ep]++
	var hit [rmShards]bool
	for _, row := range rows {
		s := owner(row[0], rmShards)
		hit[s] = true
		t.pending[s]++
	}
	for i, h := range hit {
		if h {
			t.worker[i][ep]++
			t.wal++
		}
	}
}

func (t *rmTally) refresh() {
	t.router["refresh"]++
	t.scatters++
	for i := range t.worker {
		t.worker[i]["refresh"]++
		if t.pending[i] > 0 {
			t.refreshes[i]++
		}
		t.pending[i] = 0
	}
}

// rmState is the workload's running state.
type rmState struct {
	r       *run
	rel     *relation
	orc     *oracle
	opt     ccubing.Options
	topo    *rmTopo
	rec     *spanRecorder
	wc, rc  *client // writer and reader clients
	rng     *rand.Rand
	recent  []int32 // dimension-0 partitions the writes land on
	lim     []int   // exclusive bound of appended codes per dimension
	tally   *rmTally
	traced  bool
	nwin    int // windows generated so far; a window's writes go to shard nwin%rmShards
	metrics struct {
		qlat, qTraced, alat, appends, refreshes, recovers, rebuilds, replays samples
		readSecs                                                             float64
		reads                                                                int
		refreshStats                                                         []ccubing.RefreshStats
		walPerRow                                                            []float64
		handler, transport, self, worker, straggler                          samples
		hsum, rsum                                                           float64
		fanout, scattered, tracedReads                                       int
		hits, misses, evictions, workerErrors                                float64
		mismatches                                                           int
		loads, saves                                                         samples
		snapMB                                                               float64
		loaded                                                               *ccubing.Cube
	}
}

func rmCards() ([]int, []float64) {
	cards := []int{rmCard0}
	skews := []float64{0}
	for d := 1; d < rmDims; d++ {
		cards = append(cards, rmCard)
		skews = append(skews, rmSkew)
	}
	return cards, skews
}

// startTopo materializes one cube per shard, serves each with a WAL, and
// fronts them with a router — a two-worker `ccserve -shard i/2 -wal` plus
// `ccserve -router` deployment.
func startTopo(rel *relation, opt ccubing.Options, wals []string, rec *spanRecorder) (*rmTopo, []time.Duration, []float64, error) {
	ds, err := rel.dataset()
	if err != nil {
		return nil, nil, nil, err
	}
	t := &rmTopo{wals: wals}
	var builds []time.Duration
	var allocs []float64
	for i := 0; i < rmShards; i++ {
		sds, err := ds.Shard(0, i, rmShards)
		if err != nil {
			return nil, nil, nil, err
		}
		m0 := readMem()
		start := time.Now()
		cube, err := ccubing.Materialize(sds, opt)
		if err != nil {
			return nil, nil, nil, err
		}
		builds = append(builds, time.Since(start))
		allocs = append(allocs, mb(readMem().totalAlloc-m0.totalAlloc))
		if err := cube.AutoRefresh(ccubing.AutoRefreshOptions{WAL: wals[i]}); err != nil {
			return nil, nil, nil, err
		}
		w, err := startLocal(fmt.Sprintf("worker%d", i), "127.0.0.1:0", cube, i, rmShards, rec)
		if err != nil {
			return nil, nil, nil, err
		}
		t.workers = append(t.workers, w)
	}
	if t.router, err = startRouter(t.workers, rec); err != nil {
		return nil, nil, nil, err
	}
	return t, builds, allocs, nil
}

func runRoutedMixed(r *run) error {
	cards, skews := rmCards()
	opt := ccubing.Options{MinSup: rmMinSup}
	wals := []string{filepath.Join(r.work, "w0.wal"), filepath.Join(r.work, "w1.wal")}
	var rec *spanRecorder
	if r.trace {
		rec = newSpanRecorder()
	}

	var (
		rel            *relation
		topo           *rmTopo
		setups, builds samples
		allocs         []float64
		heap           float64
	)
	for i := 0; i < rmSetups; i++ {
		if topo != nil {
			topo.stop()
			for _, w := range wals {
				os.Remove(w)
			}
		}
		runtime.GC()
		start := time.Now()
		rel = zipfRelation(r.seed, rmRows, cards, skews)
		pre := time.Since(start)
		last := i == rmSetups-1
		var h0 uint64
		if last {
			h0 = liveHeap()
		}
		start = time.Now()
		var b []time.Duration
		var a []float64
		var err error
		if topo, b, a, err = startTopo(rel, opt, wals, rec); err != nil {
			return err
		}
		setups.add(pre + time.Since(start))
		for j := range b {
			builds.add(b[j])
			allocs = append(allocs, a[j])
		}
		if last {
			heap = mb(liveHeap() - h0)
		}
	}
	r.set("setup_s", setups.median())
	r.set("build_alloc_mb", medianOf(allocs))
	r.set("live_heap_mb", heap)

	s := &rmState{r: r, rel: rel, orc: newOracle(rel, rmShards), opt: opt, topo: topo, rec: rec,
		wc: newClient("w-"), rc: newClient("r-"), rng: rand.New(rand.NewSource(r.seed*977 + 5))}
	defer func() {
		s.wc.close()
		s.rc.close()
		s.topo.stop()
	}()
	// Recent partitions: the two highest dimension-0 codes each shard owns.
	// Each window writes to one shard's pair, alternating, the way the
	// newest time bucket lives on one shard at a time; so each refresh
	// recomputes on one worker while the other serves.
	for sh := 0; sh < rmShards; sh++ {
		n := 0
		for v := int32(rmCard0 - 1); v >= 0 && n < 2; v-- {
			if owner(v, rmShards) == sh {
				s.recent = append(s.recent, v)
				n++
			}
		}
	}
	// Appended codes stay within what every shard has seen, so no append
	// grows a shard's domain.
	s.lim = make([]int, rmDims)
	for d := range s.lim {
		s.lim[d] = rel.cards[d]
		for sh := 0; sh < rmShards; sh++ {
			seen := 0
			for i := 0; i < rel.n(); i++ {
				row := rel.row(i)
				if owner(row[0], rmShards) == sh && int(row[d])+1 > seen {
					seen = int(row[d]) + 1
				}
			}
			s.lim[d] = min(s.lim[d], seen)
		}
	}

	met0, err := scrape(s.rc, topo.router.addr)
	if err != nil {
		return err
	}
	gc0 := readMem()
	tracedFrom := time.Now().Add(r.seconds * 2 / 5)
	deadline := time.Now().Add(r.seconds)
	rounds := 0
	for rounds < 2 || time.Now().Before(deadline) {
		s.traced = r.trace && rounds >= 1 && time.Now().After(tracedFrom)
		if s.traced {
			rec.on.Store(true)
		}
		if err := s.round(); err != nil {
			return err
		}
		rounds++
	}
	rec.off()
	gc1 := readMem()
	met1, err := scrape(s.rc, s.topo.router.addr)
	if err != nil {
		return err
	}

	m := &s.metrics
	r.set("query_p50_ms", m.qlat.median()*1e3)
	r.set("query_p90_ms", m.qlat.quantile(0.9)*1e3)
	r.set("tail.query_p99_ms", m.qlat.chunkedP99()*1e3)
	r.set("aggregate_p50_ms", m.alat.median()*1e3)
	r.set("read_rps", float64(m.reads)/m.readSecs)
	r.set("append_p50_ms", m.appends.median()*1e3)
	r.set("refresh_s", m.refreshes.median())
	r.set("recover_s", m.recovers.median())
	r.logf("routed_mixed: %d rounds, %d reads (%d point samples), %d refreshes, %d restarts",
		rounds, m.reads, len(m.qlat)+len(m.qTraced), len(m.refreshes), len(m.recovers))

	r.set("snapshot_mb", m.snapMB)
	r.set("load_s", m.loads.median())
	r.set("build_s", append(builds, m.rebuilds...).median())

	if r.trace {
		r.set("ccubing.save_s", m.saves.median())
		r.set("engine.rebuild_s", m.rebuilds.median())
		r.set("refresh.replay_s", m.replays.median())
		r.set("refresh.wal_bytes_per_row", medianOf(m.walPerRow))
		r.setRefreshLayer(m.refreshStats)
		r.setProbeLayer(met0, met1)
		r.setGC(gc0, gc1)
		if m.hits+m.misses > 0 {
			r.set("qcache.hit_ratio", m.hits/(m.hits+m.misses))
		}
		r.set("qcache.evictions", m.evictions)
		r.set("serve.worker_errors", m.workerErrors)
		r.set("serve.handler_us", m.handler.median()*1e6)
		r.set("serve.transport_us", m.transport.median()*1e6)
		r.set("serve.router_self_us", m.self.median()*1e6)
		r.set("serve.worker_us", m.worker.median()*1e6)
		r.set("serve.straggler_us", m.straggler.median()*1e6)
		if m.tracedReads > 0 {
			r.set("serve.fanout_per_read", float64(m.fanout)/float64(m.tracedReads))
			r.set("serve.scatter_share", float64(m.scattered)/float64(m.tracedReads))
		}
		r.set("trace.coverage", m.hsum/m.rsum)
		r.set("trace.overhead", m.qTraced.median()/m.qlat.median())
		r.set("obs.crosscheck_mismatches", float64(m.mismatches))
		r.set("serve.alloc_kb_per_req", float64(gc1.totalAlloc-gc0.totalAlloc)/1024/float64(s.wc.seq.Load()+s.rc.seq.Load()))
		if n := delta(met0, met1, "ccubing_wal_append_seconds_count"); n > 0 {
			r.set("refresh.wal_append_us", delta(met0, met1, "ccubing_wal_append_seconds_sum")/n*1e6)
		}

		// Build layers on shard 0, and the facade read path on its reloaded
		// snapshot with keys like the reader's.
		ds, err := rel.dataset()
		if err != nil {
			return err
		}
		sds, err := ds.Shard(0, 0, rmShards)
		if err != nil {
			return err
		}
		l, err := measureBuildLayers(sds, opt)
		if err != nil {
			return err
		}
		r.setBuildLayers(l, builds.median())
		keys := make([][]int32, 5000)
		for i := range keys {
			keys[i] = s.pointQuery(s.rng, i%2)
		}
		aggWhere := make([][]int32, 200)
		for i := range aggWhere {
			aggWhere[i] = s.aggWhere(s.rng)
		}
		q, qc, a, err := facadeReads(m.loaded, keys, aggWhere, []string{fmt.Sprintf("d%d", rmGroupDim)})
		if err != nil {
			return err
		}
		r.set("ccubing.query_us", q)
		r.set("ccubing.query_cached_us", qc)
		r.set("ccubing.aggregate_ms", a)
		r.zeroLayers(perLayerNames()...)
	}
	return nil
}

// pointQuery draws a uniform point key; kind 0 binds dimension 0, kind 1
// leaves it wildcard.
func (s *rmState) pointQuery(rng *rand.Rand, kind int) []int32 {
	row := s.rel.row(rng.Intn(s.rel.n()))
	q := pointKey(rng, s.rel, 0.5)
	if kind == 0 {
		q[0] = row[0]
	} else {
		q[0] = star
	}
	return q
}

// aggWhere draws the one aggregate shape: dimensions 1 and 2 bound from a
// uniform row, the rest wildcard, grouped by dimension 3 across shards.
func (s *rmState) aggWhere(rng *rand.Rand) []int32 {
	row := s.rel.row(rng.Intn(s.rel.n()))
	w := make([]int32, rmDims)
	for d := range w {
		w[d] = star
	}
	w[1], w[2] = row[1], row[2]
	return w
}

func (s *rmState) routerURL() string { return "http://" + s.topo.router.addr }

// genWindow draws one window's mutation batches. Tuples are distinct across
// the whole round (used), so each batch's effect is visible on its own.
func (s *rmState) genWindow(w int, used map[string]bool) ([]*rmBatch, *rmBatch) {
	var appends []*rmBatch
	var doubled [][]int32
	for a := 0; a < rmAppends; a++ {
		b := &rmBatch{window: w}
		for len(b.tuples) < rmTuples {
			t := make([]int32, rmDims)
			t[0] = s.recent[2*(s.nwin%rmShards)+s.rng.Intn(2)]
			for d := 1; d < rmDims; d++ {
				t[d] = int32(s.rng.Intn(s.lim[d]))
			}
			k := keyValues(t)
			if used[k] {
				continue
			}
			used[k] = true
			b.tuples = append(b.tuples, t)
		}
		b.rows = append(b.rows, b.tuples...)
		b.rows = append(b.rows, b.tuples[:rmDoubled]...)
		doubled = append(doubled, b.tuples[:rmDoubled]...)
		appends = append(appends, b)
	}
	del := &rmBatch{del: true, window: w}
	for _, i := range s.rng.Perm(len(doubled))[:rmDeletes] {
		del.rows = append(del.rows, doubled[i])
	}
	del.tuples = del.rows
	s.nwin++
	return appends, del
}

func (s *rmState) send(b *rmBatch) {
	ep := "append"
	if b.del {
		ep = "delete"
	}
	var d time.Duration
	d = timed(func() { b.err = s.wc.postJSON(s.routerURL()+"/v1/"+ep, map[string]any{"values": b.rows}, nil) })
	if !b.del {
		s.metrics.appends.add(d)
	}
	s.tally.mutation(ep, b.rows)
	if b.err == nil {
		sign := int64(1)
		if b.del {
			sign = -1
		}
		for _, row := range b.rows {
			s.orc.edits = append(s.orc.edits, edit{vals: row, sign: sign})
		}
	}
}

// refresh folds the delta in through the router and records it.
func (s *rmState) refresh() (time.Time, time.Time, error) {
	var ra refreshAnswer
	start := time.Now()
	err := s.wc.postJSON(s.routerURL()+"/v1/refresh", struct{}{}, &ra)
	end := time.Now()
	s.r.op(err != nil)
	s.tally.refresh()
	if err == nil {
		s.metrics.refreshes.add(end.Sub(start))
		s.metrics.refreshStats = append(s.metrics.refreshStats, refreshStats(ra))
	}
	return start, end, err
}

// read sends one reader request.
func (s *rmState) read(rng *rand.Rand, kind int) rmRead {
	rd := rmRead{kind: kind}
	rd.t.sent = time.Now()
	rd.t.due = rd.t.sent
	if kind == 2 {
		rd.q = s.aggWhere(rng)
		rd.t.id, rd.err = s.rc.do(http.MethodGet, aggURL(s.routerURL(), rd.q, rmGroupDim), nil, &rd.aa)
	} else {
		rd.q = s.pointQuery(rng, kind)
		rd.t.id, rd.err = s.rc.do(http.MethodGet, s.routerURL()+"/v1/query?values="+keyValues(rd.q), nil, &rd.qa)
	}
	rd.t.got = time.Now()
	return rd
}

// round runs one round: rmWindows windows of concurrent writes and reads,
// the restart, the per-batch durability check, and the reset to the base.
func (s *rmState) round() error {
	r := s.r
	s.tally = newTally()
	if s.rec != nil {
		s.rec.reset()
	}
	var before []map[string]float64
	if s.traced {
		var err error
		if before, err = s.scrapeAll(); err != nil {
			return err
		}
	}
	used := map[string]bool{}
	var batches []*rmBatch
	var windows [][]*rmBatch
	for w := 0; w < rmWindows; w++ {
		appends, del := s.genWindow(w, used)
		prevEdits := len(s.orc.edits)
		var rs, re time.Time
		var rerr error
		var reads []rmRead
		var wg sync.WaitGroup
		wg.Add(1)
		readRNG := rand.New(rand.NewSource(s.rng.Int63()))
		firstDone, refreshing := make(chan struct{}), make(chan struct{})
		go func() {
			defer wg.Done()
			reads = s.readWindow(readRNG, firstDone, refreshing)
		}()
		for _, b := range appends {
			s.send(b)
		}
		s.send(del)
		win := append(append([]*rmBatch(nil), appends...), del)
		windows = append(windows, win)
		batches = append(batches, win...)
		refreshed := w < rmWindows-1
		<-firstDone
		close(refreshing)
		if refreshed {
			rs, re, rerr = s.refresh()
		}
		wg.Wait()
		if rerr != nil {
			return fmt.Errorf("refresh: %w", rerr)
		}
		s.checkReads(reads, s.orc.edits[:prevEdits], s.orc.edits, refreshed, rs, re)
		if refreshed {
			s.checkNow(rmChecks)
		}
	}
	if s.traced {
		after, err := s.scrapeAll()
		if err != nil {
			return err
		}
		s.crossCheck(before, after)
	}

	// Graceful restart of both workers from the data source and their WALs.
	// Only the last window is still in a WAL: bytes per pending row.
	last := windows[rmWindows-1]
	for i, wal := range s.topo.wals {
		rows := 0
		for _, b := range last {
			for _, row := range b.rows {
				if owner(row[0], rmShards) == i {
					rows++
				}
			}
		}
		if fi, err := os.Stat(wal); err == nil && rows > 0 {
			s.metrics.walPerRow = append(s.metrics.walPerRow, float64(fi.Size())/float64(rows))
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range s.topo.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.stop()
		}()
	}
	wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections() // the router's worker clients
	next := make([]*node, rmShards)
	errs := make([]error, rmShards)
	builds := make([]time.Duration, rmShards)
	replays := make([]time.Duration, rmShards)
	for i, w := range s.topo.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next[i], builds[i], replays[i], errs[i] = rebuildLocal(w, s.rel, s.opt, s.topo.wals[i], i, rmShards, s.rec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("restart worker %d: %w", i, err)
		}
		s.topo.workers[i] = next[i]
	}
	allStar := make([]int32, rmDims)
	for d := range allStar {
		allStar[d] = star
	}
	var qa queryAnswer
	_, err := s.rc.do(http.MethodGet, s.routerURL()+"/v1/query?values="+keyValues(allStar), nil, &qa)
	r.op(err != nil)
	if err != nil {
		return fmt.Errorf("first query after restart: %w", err)
	}
	s.metrics.recovers.add(time.Since(start))
	for i := range builds {
		s.metrics.rebuilds.add(builds[i])
		s.metrics.replays.add(replays[i])
	}

	// Fold the replayed WAL in, then check every batch of the round.
	if _, _, err := s.refresh(); err != nil {
		return fmt.Errorf("refresh after restart: %w", err)
	}
	survived := s.checkBatches(batches, windows)

	// Reset to the base relation: delete what the topology still serves.
	var net [][]int32
	for _, win := range windows {
		if survived[win[0].window] {
			net = append(net, netRows(win)...)
		}
	}
	if len(net) > 0 {
		err = s.wc.postJSON(s.routerURL()+"/v1/delete", map[string]any{"values": net}, nil)
	}
	r.op(err != nil)
	if err != nil {
		return fmt.Errorf("reset delete: %w", err)
	}
	if _, _, err := s.refresh(); err != nil {
		return fmt.Errorf("reset refresh: %w", err)
	}
	s.orc.edits = nil
	s.checkNow(rmChecks)
	return s.snapshot()
}

// netRows is what a window's batches leave in the relation: its appended
// rows less one copy per deleted row.
func netRows(win []*rmBatch) [][]int32 {
	deleted := map[string]int{}
	for _, b := range win {
		if b.del {
			for _, row := range b.rows {
				deleted[keyValues(row)]++
			}
		}
	}
	var out [][]int32
	for _, b := range win {
		if b.del {
			continue
		}
		for _, row := range b.rows {
			if k := keyValues(row); deleted[k] > 0 {
				deleted[k]--
			} else {
				out = append(out, row)
			}
		}
	}
	return out
}

// snapshot saves both shards' cubes (now back at the base relation) and
// reloads one of them, alternating shards across rounds.
func (s *rmState) snapshot() error {
	m := &s.metrics
	m.snapMB = 0
	for i, w := range s.topo.workers {
		var buf bytes.Buffer
		var err error
		m.saves.add(timed(func() { err = w.local.Cube().Save(&buf) }))
		if err != nil {
			return fmt.Errorf("save shard %d: %w", i, err)
		}
		m.snapMB += mb(uint64(buf.Len()))
		if i == len(m.loads)%rmShards {
			var c *ccubing.Cube
			m.loads.add(timed(func() { c, err = ccubing.LoadCube(bytes.NewReader(buf.Bytes())) }))
			if err != nil {
				return fmt.Errorf("load shard %d: %w", i, err)
			}
			if i == 0 {
				m.loaded = c
			}
		}
	}
	return nil
}

// readWindow runs the reader's closed loop for one window. The last
// rmBeside reads start when the writer is about to refresh (the writer
// waits for the others), so the share of reads running beside a refresh
// does not depend on how fast the machine is.
func (s *rmState) readWindow(rng *rand.Rand, firstDone chan<- struct{}, refreshing <-chan struct{}) []rmRead {
	out := make([]rmRead, rmReads)
	split := rmReads - rmBeside
	var busy time.Duration
	start := time.Now()
	for i := range out {
		if i == split {
			busy += time.Since(start)
			close(firstDone)
			<-refreshing
			start = time.Now()
		}
		kind := i % 2
		if i%rmAggEvery == rmAggEvery-1 {
			kind = 2
		}
		out[i] = s.read(rng, kind)
	}
	busy += time.Since(start)
	s.metrics.readSecs += busy.Seconds()
	return out
}

// checkReads verifies one window's reads. Reads that overlapped the
// window's refresh may see either generation on each shard.
func (s *rmState) checkReads(reads []rmRead, prev, cur []edit, refreshed bool, rs, re time.Time) {
	m := &s.metrics
	for _, rd := range reads {
		s.r.op(rd.err != nil)
		s.tally.read(rd.q, rd.kind == 2)
		m.reads++
		lat := rd.t.latency()
		switch {
		case rd.kind == 2:
			m.alat.add(lat)
		case s.traced:
			m.qTraced.add(lat)
		default:
			m.qlat.add(lat)
		}
		if s.traced {
			s.spans(rd)
		}
		if rd.err != nil {
			continue
		}
		states := [][]edit{prev}
		switch {
		case !refreshed || rd.t.got.Before(rs):
		case rd.t.sent.After(re):
			states = [][]edit{cur}
		default:
			states = [][]edit{prev, cur}
		}
		if rd.kind == 2 {
			if !rd.aa.Exact {
				s.r.wrong("routed aggregate %v: exact=false", rd.q)
			}
			if !s.aggMatches(rd.q, rd.aa, states) {
				s.r.wrong("routed aggregate %v: %d groups, none of the oracle's states match", rd.q, len(rd.aa.Rows))
			}
			continue
		}
		if !s.pointMatches(rd.q, rd.qa, states) {
			s.r.wrong("routed query %v = (%v, %d), no oracle state matches", rd.q, rd.qa.Found, rd.qa.Count)
		}
	}
}

// shardCounts returns q's count on each shard under each state.
func (s *rmState) shardCounts(q []int32, states [][]edit) [][rmShards]int64 {
	out := make([][rmShards]int64, len(states))
	for i, st := range states {
		s.orc.withEdits(st, func() {
			for sh := 0; sh < rmShards; sh++ {
				out[i][sh], _ = s.orc.count(q, sh)
			}
		})
	}
	return out
}

// pointMatches reports whether a routed point answer equals what the
// topology answers under some per-shard choice of state: a bound query goes
// to the owning shard; a wildcard one sums the shards whose count reaches
// minsup.
func (s *rmState) pointMatches(q []int32, a queryAnswer, states [][]edit) bool {
	counts := s.shardCounts(q, states)
	shards := []int{0, 1}
	if q[0] != star {
		shards = []int{owner(q[0], rmShards)}
	}
	var try func(i int, total int64, found bool) bool
	try = func(i int, total int64, found bool) bool {
		if i == len(shards) {
			return a.Found == found && (!found || a.Count == total)
		}
		for st := range states {
			n := counts[st][shards[i]]
			if n >= rmMinSup {
				if try(i+1, total+n, true) {
					return true
				}
			} else if try(i+1, total, found) {
				return true
			}
		}
		return false
	}
	return try(0, 0, false)
}

// aggMatches reports whether a scattered aggregate equals the sum of the
// shards' exact groups under some per-shard choice of state.
func (s *rmState) aggMatches(where []int32, a aggregateAnswer, states [][]edit) bool {
	per := make([][rmShards]map[string]aggRow, len(states))
	for i, st := range states {
		s.orc.withEdits(st, func() {
			for sh := 0; sh < rmShards; sh++ {
				per[i][sh] = s.orc.aggregate(where, []int{rmGroupDim}, sh)
			}
		})
	}
	got := a.groups([]int{rmGroupDim})
	for c0 := range states {
		for c1 := range states {
			if compareAggregate(mergeGroups(per[c0][0], per[c1][1]), got, false) == nil {
				return true
			}
		}
	}
	return false
}

// checkNow compares routed answers with the oracle's current state.
func (s *rmState) checkNow(n int) {
	cur := [][]edit{s.orc.edits}
	for i := 0; i < n; i++ {
		q := s.pointQuery(s.rng, i%2)
		var qa queryAnswer
		_, err := s.rc.do(http.MethodGet, s.routerURL()+"/v1/query?values="+keyValues(q), nil, &qa)
		s.tally.read(q, false)
		if err != nil || !s.pointMatches(q, qa, cur) {
			s.r.wrong("routed query %v after refresh = (%v, %d, %v), oracle disagrees", q, qa.Found, qa.Count, err)
		}
	}
	for i := 0; i < 4; i++ {
		w := s.aggWhere(s.rng)
		var aa aggregateAnswer
		_, err := s.rc.do(http.MethodGet, aggURL(s.routerURL(), w, rmGroupDim), nil, &aa)
		s.tally.read(w, true)
		if err != nil || !aa.Exact || !s.aggMatches(w, aa, cur) {
			s.r.wrong("routed aggregate %v after refresh: oracle disagrees (exact=%v, err=%v)", w, aa.Exact, err)
		}
	}
}

// checkBatches counts one operation per mutation batch of the round: it
// fails when the request failed or when, after the restart, the served
// counts of the batch's tuples differ from the acknowledged history. It
// returns which windows survived whole.
func (s *rmState) checkBatches(batches []*rmBatch, windows [][]*rmBatch) map[int]bool {
	served := map[string]int64{}
	for _, p := range s.recent {
		where := make([]int32, rmDims)
		for d := range where {
			where[d] = star
		}
		where[0] = p
		var aa aggregateAnswer
		groupBy := "d1,d2,d3,d4"
		_, err := s.rc.do(http.MethodGet, s.routerURL()+"/v1/aggregate?where="+whereParam(where)+"&group_by="+groupBy, nil, &aa)
		if err != nil || !aa.Exact {
			s.r.wrong("partition %d aggregate after restart: exact=%v err=%v", p, aa.Exact, err)
			continue
		}
		for _, row := range aa.Rows {
			served[itoa(int(p))+","+strings.Join(row.Cell[1:], ",")] = row.Count
		}
	}
	ok := map[*rmBatch]bool{}
	for _, b := range batches {
		good := b.err == nil
		for _, t := range b.tuples {
			if !good {
				break
			}
			want, _ := s.orc.count(t, -1)
			good = served[keyValues(t)] == want
		}
		ok[b] = good
		s.r.op(!good)
	}
	survived := map[int]bool{}
	for _, win := range windows {
		all := true
		for _, b := range win {
			all = all && ok[b]
		}
		survived[win[0].window] = all
	}
	return survived
}

// spans folds one traced reader request's handler spans into the router
// breakdown: the router's own time is its span minus the union of its
// worker spans.
func (s *rmState) spans(rd rmRead) {
	m := &s.metrics
	sp := s.rec.take(rd.t.id)
	var router *span
	var workers []span
	for i := range sp {
		if sp[i].node == "router" {
			router = &sp[i]
		} else {
			workers = append(workers, sp[i])
		}
	}
	if router == nil {
		s.r.wrong("request %s: no router span", rd.t.id)
		return
	}
	h := router.end.Sub(router.start)
	m.handler.add(h)
	m.transport.add(rd.t.rtt() - h)
	m.hsum += h.Seconds()
	m.rsum += rd.t.rtt().Seconds()
	m.tracedReads++
	m.fanout += len(workers)
	if len(workers) > 1 {
		m.scattered++
	}
	minW, maxW := time.Duration(1<<62), time.Duration(0)
	for _, w := range workers {
		d := w.end.Sub(w.start)
		m.worker.add(d)
		minW, maxW = min(minW, d), max(maxW, d)
	}
	union := unionDur(workers)
	m.self.add(h - union)
	if len(workers) > 1 {
		m.straggler.add(maxW - minW)
	}
}

// unionDur returns the time covered by at least one of the spans.
func unionDur(sp []span) time.Duration {
	sp = append([]span(nil), sp...)
	sort.Slice(sp, func(i, j int) bool { return sp[i].start.Before(sp[j].start) })
	var total time.Duration
	var lo, hi time.Time
	for i, x := range sp {
		if i == 0 || x.start.After(hi) {
			total += hi.Sub(lo)
			lo, hi = x.start, x.end
		} else if x.end.After(hi) {
			hi = x.end
		}
	}
	return total + hi.Sub(lo)
}

// scrapeAll reads /metrics from the router and each worker.
func (s *rmState) scrapeAll() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, n := range append([]*node{s.topo.router}, s.topo.workers...) {
		m, err := scrape(s.rc, n.addr)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// crossCheck compares the program's counters over a round's windows with
// what the harness sent, and folds the cache counters into the layer
// metrics.
func (s *rmState) crossCheck(before, after []map[string]float64) {
	m := &s.metrics
	t := s.tally
	cnt := func(ep string) string { return `ccubing_http_request_seconds_count{endpoint="` + ep + `"}` }
	check := func(what string, program float64, harness int) {
		m.mismatches += s.r.crossCheck(what, program, harness)
	}
	for _, ep := range []string{"query", "aggregate", "append", "delete", "refresh"} {
		check("router "+ep+" requests", delta(before[0], after[0], cnt(ep)), t.router[ep])
		calls := 0
		for i := 0; i < rmShards; i++ {
			check(fmt.Sprintf("worker%d %s requests", i, ep), delta(before[i+1], after[i+1], cnt(ep)), t.worker[i][ep])
			calls += t.worker[i][ep]
		}
		check("router worker calls for "+ep, delta(before[0], after[0], `ccubing_router_worker_calls_total{endpoint="`+ep+`"}`), calls)
	}
	check("router fan-out", delta(before[0], after[0], "ccubing_router_fanout_total"), rmShards*t.scatters)
	check("router scatters", delta(before[0], after[0], "ccubing_router_scatters_total"), t.scatters)
	for i := 0; i < rmShards; i++ {
		check(fmt.Sprintf("worker%d refreshes", i), delta(before[i+1], after[i+1], "ccubing_refreshes_total"), t.refreshes[i])
		m.hits += delta(before[i+1], after[i+1], "ccubing_cache_hits_total")
		m.misses += delta(before[i+1], after[i+1], "ccubing_cache_misses_total")
		m.evictions += delta(before[i+1], after[i+1], "ccubing_cache_evictions_total")
		m.workerErrors += delta(before[0], after[0], fmt.Sprintf(`ccubing_router_worker_errors_total{worker="%d"}`, i))
	}
	check("WAL appends", delta(before[0], after[0], "ccubing_wal_append_seconds_count"), t.wal)
}
