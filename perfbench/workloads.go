package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"preserv/internal/client"
	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ids"
)

// workload is one traffic mix. setup builds the system and its data;
// step(i) makes one closed-loop call as client i (0 or 1); finish ends
// the measured window and checks the store's final state; headline
// names the workload's own metrics behind the generic end-to-end ones
// (see endToEnd).
type workload interface {
	setup(e *env) error
	clients() [2]*bclient
	step(i int)
	finish() error
	headline() map[string]string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "record":
		return &recordWL{}, nil
	case "usecase":
		return &usecaseWL{}, nil
	case "churn":
		return &churnWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want record, usecase or churn)", name)
}

// Mix parameters.
const (
	plantEvery      = 8    // one session in 8 carries each planted error
	asyncBatch      = 100  // AsyncRecorder batch size
	flushEvery      = 1000 // the async enactor flushes at this backlog
	loadBatch       = 240  // records per Record call when loading a data set
	lineagesPerWalk = 50   // usecase query user: lineage queries per walk
	churnLineages   = 100  // churn reader: lineage queries per walk
	zipfS           = 1.1  // session skew of usecase reads
)

// enactor records generated sessions one activity per call, as the
// sync+extra recording mode does.
type enactor struct {
	c      *bclient
	g      *gen
	cur    *session
	next   int
	stored int64 // records acknowledged
	// done, if set, receives each session once all its activities are
	// stored.
	done func(s *session)
}

func (en *enactor) step() {
	if en.cur == nil {
		en.cur, en.next = en.g.session(), 0
	}
	recs := en.cur.acts[en.next]
	if en.c.record(recs) {
		en.stored += int64(len(recs))
	}
	en.next++
	if en.next == len(en.cur.acts) {
		s := en.cur
		s.acts, en.cur = nil, nil
		if en.done != nil {
			en.done(s)
		}
	}
}

// load stores whole sessions in loadBatch-sized calls, outside any
// measurement.
func load(c *bclient, sessions []*session) error {
	var recs []core.Record
	for _, s := range sessions {
		for _, a := range s.acts {
			recs = append(recs, a...)
		}
		s.acts = nil
	}
	for off := 0; off < len(recs); off += loadBatch {
		end := min(off+loadBatch, len(recs))
		resp, err := c.pc.Record(experiment.SvcEnactor, recs[off:end])
		if err != nil {
			return err
		}
		if resp.Accepted != end-off || len(resp.Rejects) > 0 {
			return fmt.Errorf("loading: accepted %d of %d records", resp.Accepted, end-off)
		}
	}
	return nil
}

// checkCount compares the store's record count with the live set.
func checkCount(c *bclient, want int64) error {
	cnt, err := c.pc.Count()
	if err != nil {
		return err
	}
	if int64(cnt.Records) != want {
		return fmt.Errorf("store holds %d records, want %d", cnt.Records, want)
	}
	c.note("count", fmt.Sprint(cnt.Records))
	return nil
}

// pick returns a uniformly drawn session and one of its data ids.
func pick(rng *rand.Rand, pool []*session) (*session, ids.ID) {
	s := pool[rng.Intn(len(pool))]
	return s, s.dataIDs[rng.Intn(len(s.dataIDs))]
}

// recordWL is Figure 4's recording path: a sync+extra enactor and an
// async enactor writing to one kvdb-backed store.
type recordWL struct {
	c        [2]*bclient
	sync     *enactor
	async    *gen
	units    [][]core.Record
	pending  int64 // journaled, not yet confirmed stored
	shipped  int64 // async records confirmed stored
	baseline int64 // records stored during setup
}

func (w *recordWL) setup(e *env) error {
	if err := e.openStores("kvdb", 1); err != nil {
		return err
	}
	if err := e.serve(false); err != nil {
		return err
	}
	w.c = [2]*bclient{e.client(1), e.client(2)}
	w.sync = &enactor{c: w.c[0], g: newGen(e.cfg.seed, 1, true, plantEvery)}
	w.async = newGen(e.cfg.seed, 2, false, plantEvery)
	rec, err := client.NewAsyncRecorder(experiment.SvcEnactor, filepath.Join(e.dir, "journal"), asyncBatch, w.c[1].pc)
	if err != nil {
		return err
	}
	rec.SetFlushConcurrency(1)
	w.c[1].async = rec
	// Warm up both paths (lazy index open, connections): one whole sync
	// session, and async recording up to its first flush, which leaves
	// nothing pending.
	for i := 0; i < actsPerSession; i++ {
		w.sync.step()
	}
	for w.shipped == 0 {
		w.step(1)
	}
	w.baseline = w.sync.stored + w.shipped
	w.sync.stored, w.shipped = 0, 0
	return errorsOf(w.c[:])
}

func (w *recordWL) clients() [2]*bclient { return w.c }

func (w *recordWL) step(i int) {
	if i == 0 {
		w.sync.step()
		return
	}
	if len(w.units) == 0 {
		w.units = w.async.session().units()
	}
	u := w.units[0]
	w.units = w.units[1:]
	if w.c[1].journal(u) {
		w.pending += int64(len(u))
	}
	if w.pending >= flushEvery && w.c[1].flush(w.pending) {
		w.shipped += w.pending
		w.pending = 0
	}
}

func (w *recordWL) finish() error {
	if w.pending > 0 && w.c[1].flush(w.pending) {
		w.shipped += w.pending
		w.pending = 0
	}
	if err := w.c[1].async.Close(); err != nil {
		return err
	}
	return checkCount(w.c[0], w.baseline+w.sync.stored+w.shipped)
}

func (w *recordWL) headline() map[string]string {
	return map[string]string{"call": "record", "rec_per_s": "ingest_rec_per_s", "heavy": "flush_p50_ms"}
}

// usecaseWL is Figure 5's use cases on the indexed path, over a
// four-shard router of file-backed stores.
type usecaseWL struct {
	c        [2]*bclient
	sessions []*session
	zipf     [2]*rand.Zipf
	k        [2]int
}

func (w *usecaseWL) setup(e *env) error {
	if err := e.openStores("file", 4); err != nil {
		return err
	}
	if err := e.serve(true); err != nil {
		return err
	}
	g := newGen(e.cfg.seed, 1, true, plantEvery)
	for i := 0; i < e.cfg.sessions; i++ {
		w.sessions = append(w.sessions, g.session())
	}
	if err := load(e.client(0), w.sessions); err != nil {
		return err
	}
	w.c = [2]*bclient{e.client(1), e.client(2)}
	for i, c := range w.c {
		w.zipf[i] = rand.NewZipf(c.rng, zipfS, 1, uint64(len(w.sessions)-1))
	}
	return nil
}

func (w *usecaseWL) clients() [2]*bclient { return w.c }

// skewed draws a session, popular ones far more often.
func (w *usecaseWL) skewed(i int) *session { return w.sessions[w.zipf[i].Uint64()] }

func (w *usecaseWL) step(i int) {
	c := w.c[i]
	k := w.k[i]
	w.k[i]++
	switch {
	case i == 0 && k%(lineagesPerWalk+1) == lineagesPerWalk:
		c.walk(w.skewed(0))
	case i == 0:
		s, d := pick(c.rng, w.sessions)
		c.lineage(d, s.lineage[d])
	case k%2 == 0:
		a, b := w.skewed(1), w.skewed(1)
		for b == a {
			b = w.skewed(1)
		}
		c.compare(a, b)
	default:
		c.semval(w.skewed(1))
	}
}

func (w *usecaseWL) finish() error {
	return checkCount(w.c[0], int64(len(w.sessions)*2*actsPerSession))
}

func (w *usecaseWL) headline() map[string]string {
	return map[string]string{"call": "lineage", "rec_per_s": "walk_rec_per_s", "heavy": "semval_p50_ms"}
}

// churnWL records, reads and deletes on one file-backed store, so
// scheduled compaction runs beside the reads.
type churnWL struct {
	window  int // complete sessions kept live
	c       [2]*bclient
	writer  *enactor
	mu      sync.Mutex
	live    []*session // complete sessions, oldest first
	k       int
	stored  int64 // records stored before the window
	deleted int64
}

func (w *churnWL) setup(e *env) error {
	w.window = e.cfg.window
	if err := e.openStores("file", 1); err != nil {
		return err
	}
	if err := e.serve(false); err != nil {
		return err
	}
	// Reach the steady state the window runs in: twice the window
	// recorded, the older half deleted, with the scheduled compaction
	// that brings.
	g := newGen(e.cfg.seed, 1, true, plantEvery)
	for i := 0; i < 2*w.window; i++ {
		w.live = append(w.live, g.session())
	}
	loader := e.client(0)
	if err := load(loader, w.live); err != nil {
		return err
	}
	for _, s := range w.live[:w.window] {
		if !loader.deleteSession(s) {
			return errorsOf([]*bclient{loader})
		}
	}
	w.live = w.live[w.window:]
	w.stored = int64(len(w.live) * 2 * actsPerSession)
	w.c = [2]*bclient{e.client(1), e.client(2)}
	w.writer = &enactor{c: w.c[0], g: newGen(e.cfg.seed, 2, true, plantEvery), done: func(s *session) {
		w.mu.Lock()
		w.live = append(w.live, s)
		w.mu.Unlock()
	}}
	return nil
}

func (w *churnWL) clients() [2]*bclient { return w.c }

// anyLive draws a complete live session. Only client 1 deletes, so the
// session stays live while client 1 reads it.
func (w *churnWL) anyLive(rng *rand.Rand) *session {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live[rng.Intn(len(w.live))]
}

func (w *churnWL) step(i int) {
	if i == 0 {
		w.writer.step()
		return
	}
	c := w.c[1]
	k := w.k
	w.k++
	if k%(churnLineages+1) != churnLineages {
		s := w.anyLive(c.rng)
		d := s.dataIDs[c.rng.Intn(len(s.dataIDs))]
		c.lineage(d, s.lineage[d])
		return
	}
	c.walk(w.anyLive(c.rng))
	for {
		w.mu.Lock()
		if len(w.live) <= w.window {
			w.mu.Unlock()
			return
		}
		oldest := w.live[0]
		w.live = w.live[1:]
		w.mu.Unlock()
		if c.deleteSession(oldest) {
			w.deleted += int64(oldest.records())
		}
	}
}

func (w *churnWL) finish() error {
	return checkCount(w.c[0], w.stored+w.writer.stored-w.deleted)
}

func (w *churnWL) headline() map[string]string {
	return map[string]string{"call": "record", "rec_per_s": "ingest_rec_per_s", "heavy": "delete_p50_ms"}
}

// errorsOf reports the first failure the clients recorded.
func errorsOf(cs []*bclient) error {
	for _, c := range cs {
		if len(c.st.errs) > 0 {
			return fmt.Errorf("%s", c.st.errs[0])
		}
	}
	return nil
}
