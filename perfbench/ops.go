package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"preserv/internal/client"
	"preserv/internal/compare"
	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/prep"
	"preserv/internal/preserv"
	"preserv/internal/registry"
	"preserv/internal/semval"
)

// Operation kinds: the client calls a workload is made of.
const (
	opRecord  = "record"  // one sync activity: exchange + script record
	opJournal = "journal" // one permutation appended to the async journal
	opFlush   = "flush"   // AsyncRecorder.Flush of the journal backlog
	opLineage = "lineage" // planned query by data id
	opWalk    = "walk"    // paged stream over one session
	opCompare = "compare" // CategorizeSessions(a, b) + SameProcess
	opSemval  = "semval"  // ValidateSession
	opDelete  = "delete"  // DeleteSession
)

// opStats is one client's account of what it did. Only its owning
// goroutine touches it.
type opStats struct {
	ms        map[string][]float64     // latency of each successful op
	busy      map[string]time.Duration // summed latency
	recs      map[string]int64         // records moved by successful ops
	attempted int64
	failed    int64
	errs      []string
	// Counters the program reports per call.
	compareStoreCalls, semvalStoreCalls   int64
	semvalRegistryCalls, semvalInteracted int64
}

func newOpStats() *opStats {
	return &opStats{ms: map[string][]float64{}, busy: map[string]time.Duration{}, recs: map[string]int64{}}
}

func (s *opStats) merge(o *opStats) {
	for k, v := range o.ms {
		s.ms[k] = append(s.ms[k], v...)
	}
	for k, v := range o.busy {
		s.busy[k] += v
	}
	for k, v := range o.recs {
		s.recs[k] += v
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.compareStoreCalls += o.compareStoreCalls
	s.semvalStoreCalls += o.semvalStoreCalls
	s.semvalRegistryCalls += o.semvalRegistryCalls
	s.semvalInteracted += o.semvalInteracted
}

// ops counts successful operations.
func (s *opStats) ops() int64 { return s.attempted - s.failed }

// bclient is one closed-loop benchmark client: it sends its next call
// only after the previous one returned, as a workflow enactor or a
// query user waiting on each reply does.
type bclient struct {
	pc  *preserv.Client
	rc  *registry.Client
	tt  *tracedTransport // nil in untraced runs
	rtt *tracedTransport
	ont *ontology.Ontology
	rng *rand.Rand
	st  *opStats
	// answers digests every answer in order, so two runs of one seed
	// can be compared answer for answer.
	answers hash.Hash64
	async   *client.AsyncRecorder
}

func newClient(storeURL, registryURL string, traced bool, seed int64, stream int) *bclient {
	c := &bclient{
		ont:     ontology.Bioinformatics(),
		rng:     rand.New(rand.NewSource(seed*104729 + int64(stream))),
		st:      newOpStats(),
		answers: fnv.New64a(),
	}
	if traced {
		c.tt, c.rtt = newTracedTransport(), newTracedTransport()
		c.rtt.setLabel("registry")
		c.pc = preserv.NewClient(storeURL, &http.Client{Timeout: 60 * time.Second, Transport: c.tt})
		c.rc = registry.NewClient(registryURL, &http.Client{Timeout: 30 * time.Second, Transport: c.rtt})
	} else {
		c.pc = preserv.NewClient(storeURL, nil)
		c.rc = registry.NewClient(registryURL, nil)
	}
	return c
}

// do runs one operation. Only call is timed; check then verifies what
// call received, outside the timing, and returns how many records the
// operation moved. A failed call or check counts as a failed attempt.
func (c *bclient) do(kind string, call func() error, check func() (records int64, err error)) bool {
	if c.tt != nil {
		c.tt.setLabel(kind)
	}
	t0 := time.Now()
	err := call()
	d := time.Since(t0)
	var n int64
	if err == nil {
		n, err = check()
	}
	c.st.attempted++
	if err != nil {
		c.st.failed++
		if len(c.st.errs) < 5 {
			c.st.errs = append(c.st.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return false
	}
	c.st.ms[kind] = append(c.st.ms[kind], float64(d)/1e6)
	c.st.busy[kind] += d
	c.st.recs[kind] += n
	if c.tt != nil {
		c.tt.endCall(kind, d, n)
	}
	return true
}

func (c *bclient) note(parts ...string) {
	for _, p := range parts {
		c.answers.Write([]byte(p))
		c.answers.Write([]byte{0})
	}
}

// record stores one activity synchronously.
func (c *bclient) record(recs []core.Record) bool {
	var resp *prep.RecordResponse
	return c.do(opRecord, func() (err error) {
		resp, err = c.pc.Record(experiment.SvcEnactor, recs)
		return err
	}, func() (int64, error) {
		if resp.Accepted != len(recs) || len(resp.Rejects) > 0 {
			return 0, fmt.Errorf("accepted %d of %d records, %d rejects", resp.Accepted, len(recs), len(resp.Rejects))
		}
		c.note(opRecord, fmt.Sprint(resp.Accepted))
		return int64(len(recs)), nil
	})
}

// journal appends one unit to the async recorder's journal.
func (c *bclient) journal(recs []core.Record) bool {
	return c.do(opJournal, func() error {
		return c.async.Record(recs...)
	}, func() (int64, error) { return 0, nil })
}

// flush ships the journal backlog; shippedBefore+pending must then be
// confirmed stored.
func (c *bclient) flush(pending int64) bool {
	before := c.async.Stats().Shipped
	return c.do(opFlush, c.async.Flush, func() (int64, error) {
		if got := c.async.Stats().Shipped - before; got != pending {
			return 0, fmt.Errorf("shipped %d of %d journaled records", got, pending)
		}
		c.note(opFlush, fmt.Sprint(pending))
		return pending, nil
	})
}

// lineage asks which interactions produced or consumed data id d.
func (c *bclient) lineage(d ids.ID, want []ids.ID) bool {
	var recs []core.Record
	var total int
	return c.do(opLineage, func() (err error) {
		recs, total, _, err = c.pc.QueryPlanned(&prep.Query{DataID: d})
		return err
	}, func() (int64, error) {
		got := make([]ids.ID, 0, len(recs))
		for i := range recs {
			if recs[i].Kind != core.KindInteraction {
				return 0, fmt.Errorf("lineage of %v returned a %v record", d, recs[i].Kind)
			}
			got = append(got, recs[i].InteractionID())
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
		if total != len(want) || len(got) != len(want) {
			return 0, fmt.Errorf("lineage of %v: %d records (total %d), want %d", d, len(got), total, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return 0, fmt.Errorf("lineage of %v: interaction %v, want %v", d, got[i], want[i])
			}
			c.note(got[i].String())
		}
		return int64(len(got)), nil
	})
}

// walk streams every record of one session.
func (c *bclient) walk(s *session) bool {
	var recs []*core.Record
	return c.do(opWalk, func() error {
		_, err := c.pc.QueryStream(&prep.Query{SessionID: s.id}, 0, func(r *core.Record) error {
			recs = append(recs, r)
			return nil
		})
		return err
	}, func() (int64, error) {
		for _, r := range recs {
			if sid, ok := r.GroupID(core.GroupSession); !ok || sid != s.id {
				return 0, fmt.Errorf("walk of %v returned a record of session %v", s.id, sid)
			}
			c.note(r.StorageKey())
		}
		if len(recs) != s.records() {
			return 0, fmt.Errorf("walk of %v: %d records, want %d", s.id, len(recs), s.records())
		}
		return int64(len(recs)), nil
	})
}

// compare answers use case 1 for two sessions: categorise both
// sessions' script records, then report which services' scripts differ.
func (c *bclient) compare(a, b *session) bool {
	var cat *compare.Categorization
	var diffs []compare.Difference
	return c.do(opCompare, func() (err error) {
		cat, err = (&compare.Categorizer{Store: c.pc}).CategorizeSessions(a.id, b.id)
		if err == nil {
			diffs = cat.SameProcess(a.id, b.id)
		}
		return err
	}, func() (int64, error) {
		if cat.InteractionsScanned != a.interactions()+b.interactions() {
			return 0, fmt.Errorf("compare scanned %d interactions, want %d", cat.InteractionsScanned, a.interactions()+b.interactions())
		}
		var got []string
		for _, d := range diffs {
			got = append(got, string(d.Service))
			c.note(string(d.Service), strings.Join(d.OnlyInA, ","), strings.Join(d.OnlyInB, ","))
		}
		sort.Strings(got)
		if want := a.differingServices(b); strings.Join(got, ",") != strings.Join(want, ",") {
			return 0, fmt.Errorf("SameProcess(%v, %v) differs in %v, want %v", a.id, b.id, got, want)
		}
		c.st.compareStoreCalls += int64(cat.StoreCalls)
		return int64(a.records() + b.records()), nil
	})
}

// semval answers use case 2 for one session.
func (c *bclient) semval(s *session) bool {
	var rep *semval.Report
	return c.do(opSemval, func() (err error) {
		v := &semval.Validator{Store: c.pc, Registry: c.rc, Ontology: c.ont}
		rep, err = v.ValidateSession(s.id)
		return err
	}, func() (int64, error) {
		if rep.Interactions != s.interactions() {
			return 0, fmt.Errorf("semval of %v validated %d interactions, want %d", s.id, rep.Interactions, s.interactions())
		}
		for _, viol := range rep.Violations {
			c.note(viol.String())
		}
		switch {
		case !s.nucleotide && len(rep.Violations) != 0:
			return 0, fmt.Errorf("semval of %v: unexpected violation %v", s.id, rep.Violations[0])
		case s.nucleotide && (len(rep.Violations) != 1 || rep.Violations[0].InteractionID != s.encodeID ||
			rep.Violations[0].Part != "sample" || rep.Violations[0].Reason != "semantic type mismatch"):
			return 0, fmt.Errorf("semval of %v: %d violations, want the planted nucleotide input", s.id, len(rep.Violations))
		}
		c.st.semvalStoreCalls += int64(rep.StoreCalls)
		c.st.semvalRegistryCalls += rep.RegistryCalls
		c.st.semvalInteracted += int64(rep.Interactions)
		return int64(s.interactions()), nil
	})
}

// deleteSession retracts one whole session.
func (c *bclient) deleteSession(s *session) bool {
	var resp *prep.DeleteResponse
	return c.do(opDelete, func() (err error) {
		resp, err = c.pc.DeleteSession(s.id)
		return err
	}, func() (int64, error) {
		if resp.Deleted != s.records() {
			return 0, fmt.Errorf("delete of %v removed %d records, want %d", s.id, resp.Deleted, s.records())
		}
		if resp.CompactError != "" {
			return 0, fmt.Errorf("compaction after delete: %s", resp.CompactError)
		}
		c.note(opDelete, fmt.Sprint(resp.Deleted))
		return int64(resp.Deleted), nil
	})
}
