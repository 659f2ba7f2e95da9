package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"preserv/internal/obs"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates the p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// heapSampler tracks the peak of the live heap: the bytes each garbage
// collection found reachable. Heap object bytes would also count garbage
// not yet collected, which rises and falls with the collector's cycle
// and makes the peak depend on where the window ends in that cycle.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling, collects once more so the live heap at the
// window's end counts too, and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(max(h.peak, sample[0].Value.Uint64()))
}

// spaceSampler follows the store's size through the window: every two
// seconds it takes the bytes on disk and the live record count, so the
// reported amplification is not a single point of a compaction cycle.
type spaceSampler struct {
	quit, done chan struct{}
	disk, recs []float64
	err        error
}

func (e *env) startSpaceSampler() *spaceSampler {
	s := &spaceSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			disk, err := e.diskBytes()
			if err != nil {
				s.err = err
				return
			}
			cnt, err := e.svc.Provenance().Count()
			if err != nil {
				s.err = err
				return
			}
			s.disk = append(s.disk, float64(disk))
			s.recs = append(s.recs, float64(cnt.Records))
		}
	}()
	return s
}

// stop ends sampling.
func (s *spaceSampler) stop() error {
	close(s.quit)
	<-s.done
	return s.err
}

// amplification is the median, over the samples and the final state, of
// bytes on disk per encoded byte of the live records. The mean encoded
// record size comes from the final state.
func (s *spaceSampler) amplification(disk, liveRecs, liveBytes int64) float64 {
	perRecord := float64(liveBytes) / float64(liveRecs)
	amp := []float64{float64(disk) / float64(liveBytes)}
	for i := range s.disk {
		amp = append(amp, s.disk[i]/(s.recs[i]*perRecord))
	}
	return median(amp)
}

// snapshot is the program's own counters at one instant.
type snapshot struct {
	// counts are event counts; on a serial pass they repeat exactly.
	counts map[string]float64
	// hist are the service's and the stores' histograms, the stores'
	// merged into one.
	hist    map[string]obs.HistogramSnapshot
	garbage float64
	mem     runtime.MemStats
}

func (e *env) counters() *snapshot {
	s := &snapshot{counts: map[string]float64{}, hist: e.svc.Obs().HistogramSnapshots()}
	es := e.svc.Provenance().EngineStats()
	for k, v := range map[string]int64{
		"engine.cache_hits":         es.CacheHits,
		"engine.cache_misses":       es.CacheMisses,
		"engine.index_plans":        es.IndexPlans,
		"engine.scan_plans":         es.ScanPlans,
		"engine.paged_queries":      es.PagedQueries,
		"engine.cost_probes":        es.CostProbes,
		"engine.postings_read":      es.PostingsRead,
		"engine.candidates_fetched": es.CandidatesFetched,
	} {
		s.counts[k] = float64(v)
	}
	if e.router != nil {
		h, m := e.router.ResultCacheStats()
		s.counts["router.resultcache_hits"] = float64(h)
		s.counts["router.resultcache_misses"] = float64(m)
	}
	st := e.svc.Stats()
	s.counts["preserv.record_requests"] = float64(st.RecordRequests)
	s.counts["preserv.records_accepted"] = float64(st.RecordsAccepted)
	s.counts["preserv.query_requests"] = float64(st.QueryRequests)
	s.counts["preserv.delete_requests"] = float64(st.DeleteRequests)
	s.counts["preserv.records_deleted"] = float64(st.RecordsDeleted)
	s.counts["preserv.compactions"] = float64(st.Compactions)
	for _, store := range e.stores {
		rc := store.ReadCacheStats()
		s.counts["store.bloom_skips"] += float64(rc.BloomSkips)
		s.counts["store.bloom_false_positives"] += float64(rc.BloomFalsePositives)
		s.counts["store.bloom_hits"] += float64(rc.BloomHits)
		s.counts["store.blockcache_hits"] += float64(rc.BlockCacheHits)
		s.counts["store.blockcache_misses"] += float64(rc.BlockCacheMisses)
		for name, h := range store.Obs().HistogramSnapshots() {
			s.hist[name] = mergeHist(s.hist[name], h)
		}
	}
	for name, h := range s.hist {
		if strings.HasPrefix(name, "preserv_request_seconds") || name == "store_compact_seconds" {
			s.counts["count."+name] = float64(h.Count)
		}
	}
	s.garbage = e.svc.Provenance().GarbageRatio()
	runtime.ReadMemStats(&s.mem)
	return s
}

func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Counts == nil {
		a = obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts))}
	}
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// histDelta is the histogram of the observations made between a and b.
func histDelta(a, b *snapshot, name string) obs.HistogramSnapshot {
	hb := b.hist[name]
	d := obs.HistogramSnapshot{Bounds: hb.Bounds, Counts: append([]int64(nil), hb.Counts...), Count: hb.Count, Sum: hb.Sum}
	if ha, ok := a.hist[name]; ok {
		for i := range ha.Counts {
			d.Counts[i] -= ha.Counts[i]
		}
		d.Count -= ha.Count
		d.Sum -= ha.Sum
	}
	return d
}

func delta(a, b *snapshot) map[string]float64 {
	out := make(map[string]float64, len(b.counts))
	for k, v := range b.counts {
		out[k] = v - a.counts[k]
	}
	return out
}

// resetTrace zeroes the wrappers' counters, so they cover the window.
func (e *env) resetTrace(cs [2]*bclient) {
	*e.bst = backendStats{}
	e.sst.mu.Lock()
	e.sst.us = nil
	e.sst.calls.n.Store(0)
	e.sst.calls.ns.Store(0)
	e.sst.mu.Unlock()
	for _, c := range cs {
		for _, t := range []*tracedTransport{c.tt, c.rtt} {
			if t != nil {
				t.mu.Lock()
				t.by = make(map[string]*wireStats)
				t.mu.Unlock()
			}
		}
	}
}

// The operations each SOAP action's client-side numbers are taken from:
// each of these operations sends requests of that one action only.
var actionOps = []struct{ action, op string }{
	{"record", opRecord},
	{"query-planned", opLineage},
	{"query-page", opWalk},
}

// layerMetrics computes the per-layer metrics of a traced window.
func (e *env) layerMetrics(win *opStats, cs [2]*bclient, a, b *snapshot, elapsed, opsPerS float64, diskBytes, liveRecs int64) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	d := delta(a, b)
	ops := float64(win.ops())

	meanMS := func(kind string) float64 {
		return ratio(win.busy[kind].Seconds()*1e3, float64(len(win.ms[kind])))
	}
	set("client.journal_us", "us", meanMS(opJournal)*1e3)
	set("client.flush_ms", "ms", meanMS(opFlush))

	wire := map[string]wireStats{}
	var reg wireStats
	for _, c := range cs {
		for label, w := range c.tt.snapshot() {
			wire[label] = addWire(wire[label], w)
		}
		for _, w := range c.rtt.snapshot() {
			reg = addWire(reg, w)
		}
	}
	for _, ao := range actionOps {
		w := wire[ao.op]
		set("soap.rtt_us."+ao.action, "us", ratio(float64(w.rttNS)/1e3, float64(w.requests)))
		set("soap.client_codec_us."+ao.action, "us", ratio(float64(w.callNS-w.rttNS)/1e3, float64(w.requests)))
		set("soap.req_bytes_per_record."+ao.action, "B/record", ratio(float64(w.reqBytes), float64(w.records)))
		set("soap.resp_bytes_per_record."+ao.action, "B/record", ratio(float64(w.respBytes), float64(w.records)))
	}

	queries := 0.0
	for _, action := range []string{"record", "query-planned", "query-page", "delete"} {
		h := histDelta(a, b, `preserv_request_seconds{action="`+action+`"}`)
		set("preserv.handle_us."+action, "us", h.Mean()*1e6)
		if strings.HasPrefix(action, "query") {
			queries += float64(h.Count)
		}
	}

	set("shard.calls_per_query", "count", ratio(float64(e.sst.calls.n.Load()), queries))
	e.sst.mu.Lock()
	set("shard.call_us_p50", "us", percentile(e.sst.us, 50))
	set("shard.call_us_p99", "us", percentile(e.sst.us, 99))
	e.sst.mu.Unlock()
	set("shard.resultcache_hit_ratio", "ratio", ratio(d["router.resultcache_hits"], d["router.resultcache_hits"]+d["router.resultcache_misses"]))

	results := float64(win.recs[opLineage] + win.recs[opWalk] + win.recs[opCompare] + win.recs[opSemval])
	set("query.postings_per_result", "count", ratio(d["engine.postings_read"], results))
	set("query.candidates_per_result", "count", ratio(d["engine.candidates_fetched"], results))
	set("query.cost_probes_per_query", "count", ratio(d["engine.cost_probes"], queries))
	set("query.scan_plans", "count", d["engine.scan_plans"])
	set("query.engine_cache_hit_ratio", "ratio", ratio(d["engine.cache_hits"], d["engine.cache_hits"]+d["engine.cache_misses"]))

	bs := e.bst
	set("index.postings_put_per_record", "count", ratio(float64(bs.postingPuts.Load()), float64(bs.recordPuts.Load())))
	set("index.scan_us", "us", ratio(float64(bs.indexScan.ns.Load())/1e3, queries))

	set("store.blockcache_hit_ratio", "ratio", ratio(d["store.blockcache_hits"], d["store.blockcache_hits"]+d["store.blockcache_misses"]))
	set("store.bloom_skip_ratio", "ratio", ratio(d["store.bloom_skips"], d["store.bloom_skips"]+d["store.bloom_hits"]+d["store.bloom_false_positives"]))
	set("store.write_stall_p99_ms", "ms", histDelta(a, b, "store_write_stall_seconds").Quantile(0.99)*1e3)
	compact := histDelta(a, b, "store_compact_seconds")
	set("store.compactions", "count", float64(compact.Count))
	set("store.compact_ms", "ms", compact.Mean()*1e3)
	set("store.garbage_ratio_end", "ratio", b.garbage)

	set("backend.putbatch_us", "us", bs.putBatch.meanUS())
	set("backend.bytes_put_per_user_byte", "ratio", ratio(float64(bs.bytesPut.Load()), float64(bs.recordBytes.Load())))
	set("backend.disk_bytes_per_record", "B/record", ratio(float64(diskBytes), float64(liveRecs)))
	set("backend.get_us", "us", bs.get.meanUS())
	set("backend.getbatch_us", "us", bs.getBatch.meanUS())
	set("backend.keys_per_getbatch", "count", ratio(float64(bs.getBatchKeys.Load()), float64(bs.getBatch.n.Load())))

	set("registry.calls_per_interaction", "count", ratio(float64(win.semvalRegistryCalls), float64(win.semvalInteracted)))
	set("registry.rtt_us", "us", ratio(float64(reg.rttNS)/1e3, float64(reg.requests)))
	set("compare.store_calls", "count", ratio(float64(win.compareStoreCalls), float64(len(win.ms[opCompare]))))
	set("semval.store_calls", "count", ratio(float64(win.semvalStoreCalls), float64(len(win.ms[opSemval]))))

	set("go.allocs_per_op", "count", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops))
	set("go.alloc_bytes_per_op", "B", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), ops))
	set("go.gc_cycles_per_s", "1/s", float64(b.mem.NumGC-a.mem.NumGC)/elapsed)
	set("trace.ops_per_s", "1/s", opsPerS)
	return m
}

func addWire(a, b wireStats) wireStats {
	a.requests += b.requests
	a.rttNS += b.rttNS
	a.reqBytes += b.reqBytes
	a.respBytes += b.respBytes
	a.callNS += b.callNS
	a.records += b.records
	return a
}
