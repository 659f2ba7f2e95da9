package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preserv/internal/core"
	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/shard"
	"preserv/internal/store"
)

// The traced run measures each layer from outside, at boundaries the
// program already exposes: an http.RoundTripper under the SOAP clients,
// and wrappers around the store.Backend and shard.Shard values handed to
// store.New and shard.NewRouter. The wrappers forward every optional
// interface the program probes for, so tracing changes timing only.

// tally accumulates a call count and the time those calls took.
type tally struct{ n, ns atomic.Int64 }

func (t *tally) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// since records one call that started at t0.
func (t *tally) since(t0 time.Time) { t.add(time.Since(t0)) }

// meanUS is the mean call time in microseconds.
func (t *tally) meanUS() float64 { return ratio(float64(t.ns.Load())/1e3, float64(t.n.Load())) }

// backendStats counts backend calls by method and key class: keys under
// "x/" are index postings, keys under "i/" and "s/" are records.
type backendStats struct {
	putBatch, get, getBatch, indexScan tally
	getBatchKeys                       atomic.Int64
	recordPuts, postingPuts            atomic.Int64
	recordBytes, bytesPut              atomic.Int64
}

func isPosting(key string) bool { return strings.HasPrefix(key, "x/") }
func isRecord(key string) bool  { return strings.HasPrefix(key, "i/") || strings.HasPrefix(key, "s/") }

func (s *backendStats) put(key string, value []byte) {
	s.bytesPut.Add(int64(len(key) + len(value)))
	switch {
	case isPosting(key):
		s.postingPuts.Add(1)
	case isRecord(key):
		s.recordPuts.Add(1)
		s.recordBytes.Add(int64(len(value)))
	}
}

// maintainer is what the Store probes a backend for beyond Backend:
// both persistent flavours (kvdb and file) implement all of it.
type maintainer interface {
	store.Compacter
	store.GarbageReporter
	store.TombstoneReporter
}

// tracedBackend times a persistent backend's calls.
type tracedBackend struct {
	b  store.Backend
	m  maintainer
	st *backendStats
}

// tracedFileBackend adds the file backend's bloom counters and mapped
// byte gauge, which the Store surfaces only when the backend has them.
type tracedFileBackend struct {
	tracedBackend
	f interface {
		store.BloomStatser
		MappedBytes() int64
	}
}

func (t *tracedFileBackend) BloomStats() (int64, int64, int64) { return t.f.BloomStats() }
func (t *tracedFileBackend) MappedBytes() int64                { return t.f.MappedBytes() }

// traceBackend wraps b, keeping exactly the optional interfaces b has.
func traceBackend(b store.Backend, st *backendStats) (store.Backend, error) {
	m, ok := b.(maintainer)
	if !ok {
		return nil, fmt.Errorf("perfbench: backend %s lacks compaction or garbage reporting", b.Name())
	}
	tb := tracedBackend{b: b, m: m, st: st}
	if f, ok := b.(interface {
		store.BloomStatser
		MappedBytes() int64
	}); ok {
		return &tracedFileBackend{tracedBackend: tb, f: f}, nil
	}
	if _, ok := b.(store.BloomStatser); ok {
		return nil, fmt.Errorf("perfbench: backend %s has bloom counters but no mapped-bytes gauge", b.Name())
	}
	return &tb, nil
}

func (t *tracedBackend) Put(key string, value []byte) error {
	t.st.put(key, value)
	return t.b.Put(key, value)
}

func (t *tracedBackend) PutBatch(kvs []store.KV) error {
	for _, kv := range kvs {
		t.st.put(kv.Key, kv.Value)
	}
	defer t.st.putBatch.since(time.Now())
	return t.b.PutBatch(kvs)
}

func (t *tracedBackend) Get(key string) ([]byte, bool, error) {
	defer t.st.get.since(time.Now())
	return t.b.Get(key)
}

func (t *tracedBackend) GetBatch(keys []string) ([][]byte, []bool, error) {
	t.st.getBatchKeys.Add(int64(len(keys)))
	defer t.st.getBatch.since(time.Now())
	return t.b.GetBatch(keys)
}

func (t *tracedBackend) Delete(key string) error         { return t.b.Delete(key) }
func (t *tracedBackend) DeleteBatch(keys []string) error { return t.b.DeleteBatch(keys) }

func (t *tracedBackend) Scan(prefix string, fn func(string, []byte) error) error {
	if isPosting(prefix) {
		defer t.st.indexScan.since(time.Now())
	}
	return t.b.Scan(prefix, fn)
}

func (t *tracedBackend) ScanFrom(prefix, from string, fn func(string, []byte) error) error {
	if isPosting(prefix) {
		defer t.st.indexScan.since(time.Now())
	}
	return t.b.ScanFrom(prefix, from, fn)
}

func (t *tracedBackend) Count(prefix string) (int, error) {
	if isPosting(prefix) {
		defer t.st.indexScan.since(time.Now())
	}
	return t.b.Count(prefix)
}

func (t *tracedBackend) Close() error          { return t.b.Close() }
func (t *tracedBackend) Name() string          { return t.b.Name() }
func (t *tracedBackend) Compact() error        { return t.m.Compact() }
func (t *tracedBackend) GarbageRatio() float64 { return t.m.GarbageRatio() }
func (t *tracedBackend) Tombstones() int64     { return t.m.Tombstones() }

// shardStats times the router's query calls into its shards.
type shardStats struct {
	calls tally
	mu    sync.Mutex
	us    []float64
}

func (s *shardStats) since(t0 time.Time) {
	d := time.Since(t0)
	s.calls.add(d)
	s.mu.Lock()
	s.us = append(s.us, float64(d)/1e3)
	s.mu.Unlock()
}

// localShard is what the Router probes an embedded shard for beyond
// Shard: generation probes keep its result cache on, and the stats
// surfaces feed urn:prep:stats.
type localShard interface {
	shard.Shard
	shard.GenerationProber
	shard.EngineStatser
	shard.ShardStatser
}

// tracedShard times a shard's query calls. It deliberately has no URL
// method: the Router fingerprints shards with one as remote endpoints.
type tracedShard struct {
	s  localShard
	st *shardStats
}

// tracedRemoteShard keeps a remote shard's endpoint URL visible.
type tracedRemoteShard struct {
	tracedShard
	u interface{ URL() string }
}

func (t *tracedRemoteShard) URL() string { return t.u.URL() }

// traceShard wraps s, keeping exactly the optional interfaces s has.
func traceShard(s shard.Shard, st *shardStats) (shard.Shard, error) {
	ls, ok := s.(localShard)
	if !ok {
		return nil, fmt.Errorf("perfbench: shard %T lacks generation or stats reporting", s)
	}
	ts := tracedShard{s: ls, st: st}
	if u, ok := s.(interface{ URL() string }); ok {
		return &tracedRemoteShard{tracedShard: ts, u: u}, nil
	}
	return &ts, nil
}

func (t *tracedShard) Record(a core.ActorID, recs []core.Record) (int, []prep.Reject, error) {
	return t.s.Record(a, recs)
}

func (t *tracedShard) Query(q *prep.Query) ([]core.Record, int, error) { return t.s.Query(q) }

func (t *tracedShard) QueryPlanned(q *prep.Query) ([]core.Record, int, *prep.QueryPlan, error) {
	defer t.st.since(time.Now())
	return t.s.QueryPlanned(q)
}

func (t *tracedShard) QueryPage(q *prep.Query, after string, pageSize int) ([]core.Record, string, bool, *prep.QueryPlan, error) {
	defer t.st.since(time.Now())
	return t.s.QueryPage(q, after, pageSize)
}

func (t *tracedShard) Sessions() ([]ids.ID, error)               { return t.s.Sessions() }
func (t *tracedShard) Count() (prep.CountResponse, error)        { return t.s.Count() }
func (t *tracedShard) DeleteRecords(keys []string) (int, error)  { return t.s.DeleteRecords(keys) }
func (t *tracedShard) DeleteSession(session ids.ID) (int, error) { return t.s.DeleteSession(session) }
func (t *tracedShard) Compact() error                            { return t.s.Compact() }
func (t *tracedShard) GarbageRatio() float64                     { return t.s.GarbageRatio() }
func (t *tracedShard) Tombstones() int64                         { return t.s.Tombstones() }
func (t *tracedShard) Close() error                              { return t.s.Close() }
func (t *tracedShard) Generation() (uint64, bool)                { return t.s.Generation() }
func (t *tracedShard) EngineStats() shard.EngineStats            { return t.s.EngineStats() }
func (t *tracedShard) ShardStats() (prep.ShardStats, error)      { return t.s.ShardStats() }

// wireStats accumulates one label's HTTP traffic and client calls.
type wireStats struct {
	requests            int64
	rttNS               int64
	reqBytes, respBytes int64
	callNS              int64
	records             int64
}

// tracedTransport is an http.RoundTripper that attributes each request
// to the label of the client operation in flight. The round trip runs
// from sending the request until its response body reaches EOF, which
// soap.Post reads completely before it decodes anything.
type tracedTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	label string
	by    map[string]*wireStats
}

func newTracedTransport() *tracedTransport {
	return &tracedTransport{base: http.DefaultTransport, by: make(map[string]*wireStats)}
}

func (t *tracedTransport) setLabel(l string) {
	t.mu.Lock()
	t.label = l
	t.mu.Unlock()
}

// statsLocked returns the current label's accumulator.
func (t *tracedTransport) statsLocked(label string) *wireStats {
	w := t.by[label]
	if w == nil {
		w = &wireStats{}
		t.by[label] = w
	}
	return w
}

// endCall records one client operation of the given label.
func (t *tracedTransport) endCall(label string, d time.Duration, records int64) {
	t.mu.Lock()
	w := t.statsLocked(label)
	w.callNS += int64(d)
	w.records += records
	t.mu.Unlock()
}

func (t *tracedTransport) snapshot() map[string]wireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]wireStats, len(t.by))
	for k, v := range t.by {
		out[k] = *v
	}
	return out
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	label := t.label
	t.mu.Unlock()
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countedBody{rc: resp.Body, done: func(n int64) {
		d := time.Since(t0)
		t.mu.Lock()
		w := t.statsLocked(label)
		w.requests++
		w.rttNS += int64(d)
		w.reqBytes += req.ContentLength
		w.respBytes += n
		t.mu.Unlock()
	}}
	return resp, nil
}

// countedBody counts a response body and reports once, at EOF or Close.
type countedBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.rc.Close()
}
