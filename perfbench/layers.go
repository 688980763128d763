package main

import (
	"bytes"
	"time"

	"ccubing"
	"ccubing/internal/cubestore"
	"ccubing/internal/obs"
)

// buildLayers splits one build into the layers Materialize runs, each timed
// by calling that layer's public entry point from here: the advisor, the
// engine the advisor picks (through ccubing.Compute), the iceberg residual
// and the store builder's freeze.
type buildLayers struct {
	advise, compute, residual, freeze float64 // seconds
	computeAlloc, residualAlloc       float64 // MB
	cells, residualRows               float64
}

func (b buildLayers) total() float64 { return b.advise + b.compute + b.residual + b.freeze }

func measureBuildLayers(ds *ccubing.Dataset, opt ccubing.Options) (buildLayers, error) {
	var out buildLayers
	var alg ccubing.Algorithm
	out.advise = timed(func() { alg = ccubing.Advise(ds, opt.MinSup, true) }).Seconds()

	copt := opt
	copt.Closed = true
	copt.Algorithm = alg
	var cells int64
	var err error
	m0 := readMem()
	out.compute = timed(func() {
		_, err = ccubing.Compute(ds, copt, func(ccubing.Cell) { cells++ })
	}).Seconds()
	if err != nil {
		return out, err
	}
	out.computeAlloc = mb(readMem().totalAlloc - m0.totalAlloc)
	out.cells = float64(cells)

	all, _, err := ccubing.ComputeCollect(ds, copt)
	if err != nil {
		return out, err
	}
	t := ds.Table()
	var res *cubestore.Residual
	if opt.MinSup > 1 {
		m0 = readMem()
		out.residual = timed(func() {
			res = cubestore.ComputeResidual(t.Cols, t.Aux, opt.MinSup, opt.Measure)
		}).Seconds()
		out.residualAlloc = mb(readMem().totalAlloc - m0.totalAlloc)
		out.residualRows = float64(res.NumRows())
	}
	out.freeze = timed(func() {
		b := cubestore.NewBuilder(ds.NumDims(), opt.Measure != ccubing.MeasureNone)
		for _, c := range all {
			b.Add(c.Values, c.Count, c.Aux)
		}
		if res != nil {
			if err = b.SetResidual(res); err != nil {
				return
			}
		}
		_, err = b.Build()
	}).Seconds()
	return out, err
}

// medianLayers takes each field's median over several measurements.
func medianLayers(ls []buildLayers) buildLayers {
	pick := func(f func(buildLayers) float64) float64 {
		v := make([]float64, len(ls))
		for i, l := range ls {
			v[i] = f(l)
		}
		return medianOf(v)
	}
	return buildLayers{
		advise:        pick(func(l buildLayers) float64 { return l.advise }),
		compute:       pick(func(l buildLayers) float64 { return l.compute }),
		residual:      pick(func(l buildLayers) float64 { return l.residual }),
		freeze:        pick(func(l buildLayers) float64 { return l.freeze }),
		computeAlloc:  pick(func(l buildLayers) float64 { return l.computeAlloc }),
		residualAlloc: pick(func(l buildLayers) float64 { return l.residualAlloc }),
		cells:         pick(func(l buildLayers) float64 { return l.cells }),
		residualRows:  pick(func(l buildLayers) float64 { return l.residualRows }),
	}
}

// setBuildLayers reports the build breakdown; build is the end-to-end
// Materialize median the layers should account for.
func (r *run) setBuildLayers(l buildLayers, build float64) {
	r.set("advisor.advise_s", l.advise)
	r.set("engine.compute_s", l.compute)
	r.set("engine.compute_alloc_mb", l.computeAlloc)
	r.set("engine.cells", l.cells)
	r.set("cubestore.residual_s", l.residual)
	r.set("cubestore.residual_alloc_mb", l.residualAlloc)
	r.set("cubestore.residual_rows", l.residualRows)
	r.set("cubestore.freeze_s", l.freeze)
	r.set("ccubing.unattributed_s", build-l.total())
}

// facadeReads times Cube.Query and Cube.Aggregate called directly on the
// same key stream the workload sends, first with the result cache off, then
// with it on (after one warming pass). It leaves the cube's cache at the
// default size.
func facadeReads(cube *ccubing.Cube, keys [][]int32, aggWhere [][]int32, groupBy []string) (queryUs, cachedUs, aggMs float64, err error) {
	var cold, warm, agg samples
	cube.SetQueryCache(0)
	for _, k := range keys {
		start := time.Now()
		cube.Query(k)
		cold.add(time.Since(start))
	}
	for _, w := range aggWhere {
		spec, perr := cube.ParseSpec(whereStrings(w))
		if perr != nil {
			return 0, 0, 0, perr
		}
		start := time.Now()
		if _, _, aerr := cube.Aggregate(spec, ccubing.AggregateOptions{GroupBy: groupBy}); aerr != nil {
			return 0, 0, 0, aerr
		}
		agg.add(time.Since(start))
	}
	cube.SetQueryCache(ccubing.DefaultQueryCacheEntries)
	for _, k := range keys {
		cube.Query(k)
	}
	for _, k := range keys {
		start := time.Now()
		cube.Query(k)
		warm.add(time.Since(start))
	}
	cube.SetQueryCache(ccubing.DefaultQueryCacheEntries)
	return cold.median() * 1e6, warm.median() * 1e6, agg.median() * 1e3, nil
}

func whereStrings(q []int32) []string {
	out := make([]string, len(q))
	for d, v := range q {
		if v == star {
			out[d] = "*"
		} else {
			out[d] = itoa(int(v))
		}
	}
	return out
}

// processMetrics reads the process-wide registry the program's /metrics
// serves (probe, cache-hit and WAL instrumentation) without a server.
func processMetrics() map[string]float64 {
	var buf bytes.Buffer
	obs.WriteText(&buf, obs.Default)
	return parseExposition(&buf)
}

// probeLayer reports the covering-probe breakdown from two /metrics
// readings taken around a read phase.
func (r *run) setProbeLayer(before, after map[string]float64) {
	ops := delta(before, after, "ccubing_probe_ops_total")
	n := delta(before, after, "ccubing_probe_seconds_count")
	if n > 0 {
		r.set("cubestore.probe_us", delta(before, after, "ccubing_probe_seconds_sum")/n*1e6)
	} else {
		r.set("cubestore.probe_us", 0)
	}
	if ops > 0 {
		r.set("cubestore.groups_per_probe", delta(before, after, "ccubing_probe_groups_total")/ops)
		r.set("cubestore.candidates_per_probe", delta(before, after, "ccubing_probe_candidates_total")/ops)
	} else {
		r.set("cubestore.groups_per_probe", 0)
		r.set("cubestore.candidates_per_probe", 0)
	}
}

// setGC reports collector activity between two readings.
func (r *run) setGC(before, after memSnap) {
	r.set("runtime.gc_cycles", float64(after.numGC-before.numGC))
	r.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// zeroLayers reports 0 for layers a workload does not exercise.
func (r *run) zeroLayers(names ...string) {
	for _, n := range names {
		if _, ok := r.values[n]; !ok {
			r.set(n, 0)
		}
	}
}
