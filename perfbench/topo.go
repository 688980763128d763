package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccubing"
	"ccubing/internal/serve"
)

// node is one in-process server: a serve.Server over a Local cube or a
// Router, on its own loopback listener — what one ccserve process is.
type node struct {
	name  string
	addr  string // host:port
	local *serve.Local
	srv   *http.Server
	done  chan struct{}
}

// startNode serves shard on addr ("127.0.0.1:0" picks a port). rec, when
// set, times every request's handler span.
func startNode(name, addr string, shard serve.Shard, local *serve.Local, rec *spanRecorder) (*node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var h http.Handler = serve.NewServer(shard, serve.Config{}).Handler()
	if rec != nil {
		h = rec.wrap(name, h)
	}
	n := &node{
		name:  name,
		addr:  ln.Addr().String(),
		local: local,
		srv:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done:  make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	return n, nil
}

// startLocal wraps a cube the way ccserve does (serve.NewLocal, optional
// shard slot) and serves it.
func startLocal(name, addr string, cube *ccubing.Cube, shardIdx, shardCnt int, rec *spanRecorder) (*node, error) {
	l := serve.NewLocal(cube)
	if shardCnt > 0 {
		l.SetShard(shardIdx, shardCnt)
	}
	return startNode(name, addr, l, l, rec)
}

// startRouter dials the workers and fronts them with a Router, as
// `ccserve -router` does.
func startRouter(workers []*node, rec *spanRecorder) (*node, error) {
	var shards []serve.Shard
	for _, w := range workers {
		s, err := serve.Dial(w.addr)
		if err != nil {
			return nil, err
		}
		shards = append(shards, s)
	}
	rt, err := serve.NewRouter(shards)
	if err != nil {
		return nil, err
	}
	return startNode("router", "127.0.0.1:0", rt, nil, rec)
}

// stop drains the server like ccserve's SIGTERM path, then closes the cube
// (syncing its WAL) and waits for the serving goroutine to end.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.done
	if n.local != nil {
		if cerr := n.local.Cube().Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// client issues the benchmark's HTTP requests. Each request carries an
// X-CCubing-Request-ID of the form <prefix><n>, so handler spans recorded
// on every server it crosses can be joined back to the client's timing.
type client struct {
	hc     *http.Client
	prefix string
	seq    atomic.Int64
}

func newClient(prefix string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, prefix: prefix}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out; it returns the
// request ID used.
func (c *client) do(method, url string, body []byte, out any) (string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return "", err
	}
	id := c.prefix + strconv.FormatInt(c.seq.Add(1), 10)
	req.Header.Set("X-CCubing-Request-ID", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return id, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return id, err
	}
	if resp.StatusCode != http.StatusOK {
		return id, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return id, fmt.Errorf("%s %s: %v", method, url, err)
		}
	}
	return id, nil
}

// Wire shapes of the answers the benchmark reads (the documented JSON API).
type queryAnswer struct {
	Found   bool     `json:"found"`
	Count   int64    `json:"count"`
	Closure []string `json:"closure"`
}

type aggregateAnswer struct {
	Rows []struct {
		Cell  []string `json:"cell"`
		Count int64    `json:"count"`
		Aux   *float64 `json:"aux"`
	} `json:"rows"`
	Exact bool `json:"exact"`
}

type refreshAnswer struct {
	Generation           uint64  `json:"generation"`
	PartitionsRecomputed int     `json:"partitions_recomputed"`
	PartitionsTotal      int     `json:"partitions_total"`
	CellsRetained        int64   `json:"cells_retained"`
	CellsRebuilt         int64   `json:"cells_rebuilt"`
	ElapsedMs            float64 `json:"elapsed_ms"`
}

func (a aggregateAnswer) groups(groupBy []int) map[string]aggRow {
	out := map[string]aggRow{}
	for _, r := range a.Rows {
		g := aggRow{count: r.Count}
		if r.Aux != nil {
			g.aux = *r.Aux
		}
		out[groupKey(r.Cell, groupBy)] = g
	}
	return out
}

// spanRecorder times each request's handler on every server it crosses,
// keyed by request ID. Recording is switched on only for traced phases.
type spanRecorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans map[string][]span
}

type span struct {
	node       string
	start, end time.Time
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{spans: map[string][]span{}} }

func (r *spanRecorder) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		id := req.Header.Get("X-CCubing-Request-ID")
		r.mu.Lock()
		r.spans[id] = append(r.spans[id], span{name, start, end})
		r.mu.Unlock()
	})
}

// take returns and forgets the spans of one request ID.
func (r *spanRecorder) take(id string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id]
	delete(r.spans, id)
	return s
}

func (r *spanRecorder) reset() {
	r.mu.Lock()
	r.spans = map[string][]span{}
	r.mu.Unlock()
}

// scrape reads a server's /metrics into "name{labels}" -> value.
func scrape(c *client, addr string) (map[string]float64, error) {
	resp, err := c.hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseExposition(resp.Body), nil
}

// parseExposition reads Prometheus text into "name{labels}" -> value.
func parseExposition(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta returns after[k] - before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }
