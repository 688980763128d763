package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"ccubing"
)

func (r *spanRecorder) off() {
	if r != nil {
		r.on.Store(false)
	}
}

// snapshotRoundTrip saves cube and loads the snapshot back loads times.
func snapshotRoundTrip(cube *ccubing.Cube, loads int) (snap []byte, loadTimes samples, save time.Duration, loaded *ccubing.Cube, err error) {
	var buf bytes.Buffer
	save = timed(func() { err = cube.Save(&buf) })
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("save: %w", err)
	}
	for i := 0; i < loads; i++ {
		d := timed(func() { loaded, err = ccubing.LoadCube(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return nil, nil, 0, nil, fmt.Errorf("load: %w", err)
		}
		loadTimes.add(d)
	}
	return buf.Bytes(), loadTimes, save, loaded, nil
}

// rebuildLocal boots a stopped worker again the way ccserve does: the same
// data source (the generated relation, optionally one shard of it), the same
// -wal, on the same address.
func rebuildLocal(old *node, rel *relation, opt ccubing.Options, wal string, idx, cnt int, rec *spanRecorder) (n *node, build, replay time.Duration, err error) {
	ds, err := rel.dataset()
	if err != nil {
		return nil, 0, 0, err
	}
	if cnt > 0 {
		if ds, err = ds.Shard(0, idx, cnt); err != nil {
			return nil, 0, 0, err
		}
	}
	var cube *ccubing.Cube
	build = timed(func() { cube, err = ccubing.Materialize(ds, opt) })
	if err != nil {
		return nil, 0, 0, err
	}
	replay = timed(func() { err = cube.AutoRefresh(ccubing.AutoRefreshOptions{WAL: wal}) })
	if err != nil {
		return nil, 0, 0, err
	}
	n, err = startLocal(old.name, old.addr, cube, idx, cnt, rec)
	return n, build, replay, err
}

// postJSON sends a JSON body and decodes the answer.
func (c *client) postJSON(url string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	_, err = c.do(http.MethodPost, url, b, out)
	return err
}

// writeTail is serve_read's write phase on its single live server: rounds of
// appends, a graceful restart that replays them from the WAL, a refresh that
// folds them in, and a reset back to the base relation. The refresh comes
// after the restart, so no acknowledged row depends on the refreshed store
// surviving a restart.
type writeTail struct {
	r   *run
	rel *relation
	orc *oracle
	opt ccubing.Options
	wal string
	c   *client
	rec *spanRecorder
	rng *rand.Rand

	rebuilds samples // Materialize time of each restart
}

// run repeats write rounds for at least srTailRounds rounds and budget.
func (w *writeTail) run(srv *node, budget time.Duration) (*node, error) {
	r := w.r
	var appends, refreshes, recovers, replays samples
	var walPerRow []float64
	var stats []ccubing.RefreshStats
	met0 := processMetrics()
	walAppends := 0
	recent := []int32{int32(w.rel.cards[0] - 1), int32(w.rel.cards[0] - 2)}
	allStar := make([]int32, w.rel.nd)
	for d := range allStar {
		allStar[d] = star
	}
	begin := time.Now()
	for round := 0; round < srTailRounds || time.Since(begin) < budget; round++ {
		var added [][]int32
		for b := 0; b < srTailBatches; b++ {
			rows := make([][]int32, srBatchRows)
			for i := range rows {
				rows[i] = append([]int32(nil), w.rel.row(w.rng.Intn(w.rel.n()))...)
				rows[i][0] = recent[w.rng.Intn(len(recent))]
			}
			var err error
			appends.add(timed(func() {
				err = w.c.postJSON("http://"+srv.addr+"/v1/append", map[string]any{"values": rows}, nil)
			}))
			r.op(err != nil)
			if err != nil {
				return srv, err
			}
			walAppends++
			added = append(added, rows...)
		}
		if fi, err := os.Stat(w.wal); err == nil {
			walPerRow = append(walPerRow, float64(fi.Size())/float64(len(added)))
		}

		// Graceful restart: drain, close (syncs the WAL), boot again.
		start := time.Now()
		if err := srv.stop(); err != nil {
			return srv, err
		}
		w.c.close()
		next, build, replay, err := rebuildLocal(srv, w.rel, w.opt, w.wal, 0, 0, w.rec)
		r.op(err != nil)
		if err != nil {
			return srv, fmt.Errorf("restart: %w", err)
		}
		srv = next
		var qa queryAnswer
		if _, err := w.c.do(http.MethodGet, "http://"+srv.addr+"/v1/query?values="+keyValues(allStar), nil, &qa); err != nil {
			return srv, fmt.Errorf("first query after restart: %w", err)
		}
		recovers.add(time.Since(start))
		w.rebuilds.add(build)
		replays.add(replay)

		var ra refreshAnswer
		refreshes.add(timed(func() { err = w.c.postJSON("http://"+srv.addr+"/v1/refresh", struct{}{}, &ra) }))
		r.op(err != nil)
		if err != nil {
			return srv, err
		}
		stats = append(stats, refreshStats(ra))
		for _, row := range added {
			w.orc.edits = append(w.orc.edits, edit{vals: row, sign: 1})
		}
		w.check(srv, added, 50)

		// Reset to the base relation: delete what was appended, refresh.
		err = w.c.postJSON("http://"+srv.addr+"/v1/delete", map[string]any{"values": added}, nil)
		r.op(err != nil)
		if err != nil {
			return srv, err
		}
		walAppends++
		refreshes.add(timed(func() { err = w.c.postJSON("http://"+srv.addr+"/v1/refresh", struct{}{}, &ra) }))
		r.op(err != nil)
		if err != nil {
			return srv, err
		}
		stats = append(stats, refreshStats(ra))
		w.orc.edits = nil
		w.check(srv, added, 20)
	}
	met1 := processMetrics()
	r.set("append_p50_ms", appends.median()*1e3)
	r.set("refresh_s", refreshes.median())
	r.set("recover_s", recovers.median())
	if r.trace {
		r.setRefreshLayer(stats)
		r.set("engine.rebuild_s", w.rebuilds.median())
		r.set("refresh.replay_s", replays.median())
		r.set("refresh.wal_bytes_per_row", medianOf(walPerRow))
		r.setWALLayer(met0, met1, walAppends)
	}
	return srv, nil
}

// check compares served point counts with the oracle on keys drawn from
// the appended rows (dimension 0 kept, others wildcarded at random) and
// from the base relation.
func (w *writeTail) check(srv *node, added [][]int32, n int) {
	for i := 0; i < n; i++ {
		var k []int32
		if i%2 == 0 {
			k = append([]int32(nil), added[w.rng.Intn(len(added))]...)
			for d := 1; d < len(k); d++ {
				if w.rng.Intn(2) == 0 {
					k[d] = star
				}
			}
		} else {
			k = pointKey(w.rng, w.rel, 0.5)
		}
		var qa queryAnswer
		if _, err := w.c.do(http.MethodGet, "http://"+srv.addr+"/v1/query?values="+keyValues(k), nil, &qa); err != nil {
			w.r.wrong("query %v after refresh: %v", k, err)
			continue
		}
		want, _ := w.orc.count(k, -1)
		if qa.Found != (want > 0) || qa.Count != want {
			w.r.wrong("query %v after refresh = (%v, %d), oracle %d", k, qa.Found, qa.Count, want)
		}
	}
}

// refreshStats converts a /v1/refresh answer.
func refreshStats(a refreshAnswer) ccubing.RefreshStats {
	return ccubing.RefreshStats{
		Generation:           a.Generation,
		PartitionsRecomputed: a.PartitionsRecomputed,
		PartitionsTotal:      a.PartitionsTotal,
		CellsRetained:        a.CellsRetained,
		CellsRebuilt:         a.CellsRebuilt,
		Elapsed:              time.Duration(a.ElapsedMs * float64(time.Millisecond)),
	}
}

// setWALLayer reports WAL append cost from the process-wide histogram and
// cross-checks its count against the mutation requests sent.
func (r *run) setWALLayer(before, after map[string]float64, sent int) {
	n := delta(before, after, "ccubing_wal_append_seconds_count")
	if n > 0 {
		r.set("refresh.wal_append_us", delta(before, after, "ccubing_wal_append_seconds_sum")/n*1e6)
	}
	mism := r.crossCheck("WAL appends", n, sent)
	r.set("obs.crosscheck_mismatches", r.values["obs.crosscheck_mismatches"]+float64(mism))
}
