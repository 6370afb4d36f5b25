package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mccatch"
	"mccatch/internal/core"
	"mccatch/internal/segment"
	"mccatch/internal/serve"
)

// session is one in-process mccatchd-style server: a serve.Server over a
// mutable backend, listening on a loopback port.
type session[T any] struct {
	traced  *traceBackend[T] // nil in untraced runs
	srv     *serve.Server[T]
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	preload []int64 // handles of the preloaded items, in order
}

// warmCount is how many items startSession inserts after compacting the
// preload, for an open loop of n requests. The server keeps the library's
// default memtable cap; the first 2×cap of these items freeze two segments
// beside the compacted one, and the rest fill the memtable so that the
// third freeze — which reaches the serve layer's 4-segment compaction —
// falls at the middle of the run's ingests (the mix ingests 4 in 50), or
// at the cap-th ingest when there are more than 2×cap of them.
func warmCount(n int) int {
	const memCap = segment.DefaultMemtableCap
	freezeAt := min(max(n*4/50/2, 1), memCap) // the timed ingest that freezes
	return 3*memCap - freezeAt
}

// startSession preloads items into a fresh Incremental, compacts it into
// one segment, inserts the warm items, and starts serving it over
// loopback HTTP with nproc client connections.
func startSession[T any](newInc func() (*mccatch.Incremental[T], error), items, warm []T, trace bool) (*session[T], error) {
	inc, err := newInc()
	if err != nil {
		return nil, err
	}
	s := &session[T]{preload: make([]int64, len(items))}
	for i, x := range items {
		if s.preload[i], err = inc.Insert(x); err != nil {
			return nil, fmt.Errorf("preload item %d: %w", i, err)
		}
	}
	inc.Compact()
	for i, x := range warm {
		if _, err := inc.Insert(x); err != nil {
			return nil, fmt.Errorf("warm item %d: %w", i, err)
		}
	}
	var b serve.Backend[T] = serve.Mutable(inc)
	if trace {
		s.traced = &traceBackend[T]{Backend: b}
		b = s.traced
	}
	s.srv = serve.New(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
	// Open every client connection before anything is timed.
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[c] = s.call(http.MethodGet, "/healthz", nil)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *session[T]) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	s.client.CloseIdleConnections()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// call sends one request and returns the status and the whole body.
func (s *session[T]) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// post is call for a POST whose reply must be 200 and decode into dst.
func (s *session[T]) post(path string, body []byte, dst any) error {
	status, out, err := s.call(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return json.Unmarshal(out, dst)
}

type opKind int

const (
	opScore opKind = iota
	opIngest
	opDelete
)

// request is one pre-marshaled open-loop request.
type request struct {
	kind opKind
	body []byte
	ref  int // ingest: index into the ingest pool; delete: index into the preload
}

// mixBlock is the request mix: every block of 50 consecutive requests
// holds exactly 45 scores, 4 ingests and 1 delete (90/8/2%) in a seeded
// order, so every seed ingests the same number of items and the backend
// reaches the same segment layout.
var mixBlock = [50]opKind{45: opIngest, 46: opIngest, 47: opIngest, 48: opIngest, 49: opDelete}

// plan draws n requests of the mix from seed. Scores query preloaded
// items; ingests take fresh items from pool in order; deletes remove
// distinct preloaded items. Every body is marshaled here, before the
// clock starts.
func plan[T any](seed int64, n int, preload, pool []T, handles []int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(len(handles))
	reqs := make([]request, 0, n)
	nextIngest, nextDelete := 0, 0
	for len(reqs) < n {
		for _, k := range rng.Perm(len(mixBlock)) {
			if len(reqs) == n {
				break
			}
			var r request
			switch kind := mixBlock[k]; {
			case kind == opDelete && nextDelete < len(victims):
				r = request{kind: opDelete, ref: victims[nextDelete]}
				nextDelete++
				r.body = []byte(fmt.Sprintf(`{"handles":[%d]}`, handles[r.ref]))
			case kind == opIngest && nextIngest < len(pool):
				item, err := json.Marshal(pool[nextIngest])
				if err != nil {
					return nil, err
				}
				r = request{kind: opIngest, ref: nextIngest, body: append(append([]byte(`{"items":[`), item...), "]}"...)}
				nextIngest++
			default:
				item, err := json.Marshal(preload[rng.Intn(len(preload))])
				if err != nil {
					return nil, err
				}
				r = request{kind: opScore, body: append(append([]byte(`{"item":`), item...), '}')}
			}
			reqs = append(reqs, r)
		}
	}
	return reqs, nil
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	score, ingest []float64 // latency from due time, ms
	late          []float64 // send time minus due time, ms
	backlogMax    int       // most requests overdue at any send
	wall          time.Duration
	attempted     int
	failed        int
	firstErr      error

	ingested map[int64]int // handle → ingest pool index
	deleted  map[int]bool  // preload indices deleted
}

// openLoop sends reqs on a fixed schedule — request i is due at
// start + i/rate whether or not earlier replies have arrived — over at
// most nproc connections. Latency is timed from each request's due time,
// so a stall shows in every request it delays, and the generator's own
// lateness and backlog are reported beside it.
func (s *session[T]) openLoop(reqs []request, rate float64) *loadResult {
	res := &loadResult{ingested: map[int64]int{}, deleted: map[int]bool{}}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	interval := float64(time.Second) / rate
	start := time.Now()
	for range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				backlog := int(float64(sent.Sub(start))/interval) - i
				r := reqs[i]
				status, body, err := s.call(http.MethodPost, opPath[r.kind], r.body)
				lat := ms(time.Since(due))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %s", opPath[r.kind], status, bytes.TrimSpace(body))
				}
				var handle int64
				if err == nil {
					handle, err = checkReply(r.kind, body)
				}
				mu.Lock()
				res.attempted++
				res.late = append(res.late, ms(sent.Sub(due)))
				if backlog > res.backlogMax {
					res.backlogMax = backlog
				}
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					switch r.kind {
					case opScore:
						res.score = append(res.score, lat)
					case opIngest:
						res.ingest = append(res.ingest, lat)
						res.ingested[handle] = r.ref
					case opDelete:
						res.deleted[r.ref] = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

var opPath = [...]string{opScore: "/v1/score", opIngest: "/v1/ingest", opDelete: "/v1/delete"}

// checkReply verifies one 200 reply: a score carries numRadii
// non-decreasing counts, an ingest one handle, a delete one true flag.
// It returns the ingested handle.
func checkReply(kind opKind, body []byte) (int64, error) {
	switch kind {
	case opScore:
		var r struct{ Counts []int }
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("score reply: %w", err)
		}
		if len(r.Counts) != numRadii {
			return 0, fmt.Errorf("score reply has %d counts, want %d", len(r.Counts), numRadii)
		}
		for k := 1; k < len(r.Counts); k++ {
			if r.Counts[k] < r.Counts[k-1] {
				return 0, fmt.Errorf("score counts decrease at radius %d: %v", k, r.Counts)
			}
		}
	case opIngest:
		var r struct{ Handles []int64 }
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("ingest reply: %w", err)
		}
		if len(r.Handles) != 1 {
			return 0, fmt.Errorf("ingest reply has %d handles, want 1", len(r.Handles))
		}
		return r.Handles[0], nil
	case opDelete:
		var r struct{ Deleted []bool }
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("delete reply: %w", err)
		}
		if len(r.Deleted) != 1 || !r.Deleted[0] {
			return 0, fmt.Errorf("delete reply %v, want [true]", r.Deleted)
		}
	}
	return 0, nil
}

// liveSet returns the live items after a phase, in insertion (handle)
// order — the order a Detect's indices refer to — with their labels.
func liveSet[T any](preload []T, preloadLabels []bool, pool []T, poolLabels []bool, lr *loadResult) ([]T, []bool) {
	var items []T
	var labels []bool
	for i, x := range preload {
		if !lr.deleted[i] {
			items = append(items, x)
			labels = append(labels, preloadLabels[i])
		}
	}
	handles := make([]int64, 0, len(lr.ingested))
	for h := range lr.ingested {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(a, b int) bool { return handles[a] < handles[b] })
	for _, h := range handles {
		items = append(items, pool[lr.ingested[h]])
		labels = append(labels, poolLabels[lr.ingested[h]])
	}
	return items, labels
}

// detectUncached moves the backend's epoch without changing the live set
// (one ingest and its delete), then times one GET /v1/detect, which must
// therefore recompute. It returns the latency, the heap bytes allocated
// during the request and the reply.
func (s *session[T]) detectUncached(scratch T) (time.Duration, uint64, []byte, error) {
	item, err := json.Marshal(scratch)
	if err != nil {
		return 0, 0, nil, err
	}
	var ing struct{ Handles []int64 }
	if err := s.post("/v1/ingest", append(append([]byte(`{"items":[`), item...), "]}"...), &ing); err != nil {
		return 0, 0, nil, err
	}
	if len(ing.Handles) != 1 {
		return 0, 0, nil, fmt.Errorf("ingest reply has %d handles", len(ing.Handles))
	}
	var del struct{ Deleted []bool }
	if err := s.post("/v1/delete", []byte(fmt.Sprintf(`{"handles":[%d]}`, ing.Handles[0])), &del); err != nil {
		return 0, 0, nil, err
	}
	h0, t0 := readHeap(), time.Now()
	status, body, err := s.call(http.MethodGet, "/v1/detect", nil)
	lat := time.Since(t0)
	alloc := readHeap().totalAlloc - h0.totalAlloc
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/v1/detect: status %d: %s", status, bytes.TrimSpace(body))
	}
	return lat, alloc, body, err
}

// numRadii is the radii count every workload runs with (the default a).
const numRadii = core.DefaultNumRadii
