package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"preserv/internal/core"
	"preserv/internal/experiment"
	"preserv/internal/ids"
	"preserv/internal/ontology"
	"preserv/internal/workflow"
)

// Session shape: two header activities (collate, encode) and
// permsPerSession permutations of seven activities each (shuffle, three
// measures, two compressions, collate-permutation) — the Measure
// workflow of the paper's Figure 2. With scripts every activity is an
// exchange record plus its script record: 2 × (2 + 34×7) = 480 records.
const (
	permsPerSession = 34
	actsPerPerm     = 7
	headerActs      = 2
	actsPerSession  = headerActs + permsPerSession*actsPerPerm
	maxContent      = 64
)

// plantedConfig is the gzip script configuration a planted session ran
// with instead of the default one.
const plantedConfig = "-1 --fast"

// session is one generated workflow run plus the ground truth the
// benchmark checks answers against.
type session struct {
	id ids.ID
	// nucleotide: the run collated a nucleotide sample, which semval
	// must report as exactly one violation at encodeID's "sample" input.
	nucleotide bool
	// altConfig: the gzip script ran with plantedConfig, which
	// SameProcess must report against an unplanted run.
	altConfig bool
	scripts   bool
	encodeID  ids.ID
	// acts holds each activity's records (exchange, then script). The
	// recording client drops them once they are stored.
	acts [][]core.Record
	// lineage maps every data id of the run to the interactions that
	// produced or consumed it, sorted.
	lineage map[ids.ID][]ids.ID
	dataIDs []ids.ID
}

// records is the number of records the session stores.
func (s *session) records() int {
	if s.scripts {
		return 2 * actsPerSession
	}
	return actsPerSession
}

// interactions is the number of interaction records the session stores.
func (s *session) interactions() int { return actsPerSession }

// units groups the activities the way the async enactor journals them:
// the header, then one permutation at a time.
func (s *session) units() [][]core.Record {
	var out [][]core.Record
	flat := func(acts [][]core.Record) []core.Record {
		var recs []core.Record
		for _, a := range acts {
			recs = append(recs, a...)
		}
		return recs
	}
	out = append(out, flat(s.acts[:headerActs]))
	for p := 0; p < permsPerSession; p++ {
		lo := headerActs + p*actsPerPerm
		out = append(out, flat(s.acts[lo:lo+actsPerPerm]))
	}
	return out
}

// differingServices lists the services SameProcess must report for runs
// s and o: the collate services when only one collated nucleotides, and
// gzip when only one ran the planted script configuration.
func (s *session) differingServices(o *session) []string {
	var out []string
	if s.nucleotide != o.nucleotide {
		out = append(out, string(experiment.SvcCollate), string(experiment.SvcCollateNuc))
	}
	if s.altConfig != o.altConfig {
		out = append(out, string(experiment.CompressorService("gzip")))
	}
	sort.Strings(out)
	return out
}

// gen produces deterministic sessions: identifiers, timestamps,
// contents and planted errors all derive from the seed and stream, so
// a seed names one exact input.
type gen struct {
	rng     *rand.Rand
	ids     *ids.SeqSource
	clock   time.Time
	scripts bool
	// plantEvery: one session in plantEvery carries each planted error
	// (drawn independently); 0 plants nothing.
	plantEvery int
}

func newGen(seed int64, stream int, scripts bool, plantEvery int) *gen {
	return &gen{
		rng:        rand.New(rand.NewSource(seed*7919 + int64(stream))),
		ids:        &ids.SeqSource{Prefix: uint64(seed)&0xFFFFFF<<8 | uint64(stream)&0xFF},
		clock:      time.Date(2005, 7, 24, 9, 0, 0, 0, time.UTC).Add(time.Duration(stream) * time.Hour),
		scripts:    scripts,
		plantEvery: plantEvery,
	}
}

func (g *gen) tick() time.Time {
	g.clock = g.clock.Add(time.Millisecond)
	return g.clock
}

func (g *gen) value(kind string) workflow.Value {
	return workflow.Value{
		DataID:  g.ids.NewID(),
		Content: []byte(fmt.Sprintf("%s=%d", kind, g.rng.Int63n(1<<40))),
	}
}

// session generates the next run.
func (g *gen) session() *session {
	s := &session{
		id:      g.ids.NewID(),
		scripts: g.scripts,
		lineage: make(map[ids.ID][]ids.ID),
	}
	if g.plantEvery > 0 {
		s.nucleotide = g.rng.Intn(g.plantEvery) == 0
		s.altConfig = g.rng.Intn(g.plantEvery) == 0
	}
	seq := uint64(0)
	act := func(svc core.ActorID, op string, in, out map[string]workflow.Value) ids.ID {
		seq++
		it := core.Interaction{ID: g.ids.NewID(), Sender: experiment.SvcEnactor, Receiver: svc, Operation: op}
		ex := workflow.NewExchangeRecord(it, experiment.SvcEnactor, s.id, seq, in, out, maxContent)
		ex.Interaction.Timestamp = g.tick()
		recs := []core.Record{ex}
		if g.scripts {
			config := ""
			if s.altConfig && svc == experiment.CompressorService("gzip") {
				config = plantedConfig
			}
			sc := workflow.NewScriptRecord(it, experiment.SvcEnactor, s.id, seq, experiment.DefaultScript(svc, config))
			sc.ActorState.Timestamp = g.tick()
			recs = append(recs, sc)
		}
		s.acts = append(s.acts, recs)
		for _, m := range []map[string]workflow.Value{in, out} {
			for _, v := range m {
				if len(s.lineage[v.DataID]) == 0 {
					s.dataIDs = append(s.dataIDs, v.DataID)
				}
				if l := s.lineage[v.DataID]; len(l) == 0 || l[len(l)-1] != it.ID {
					s.lineage[v.DataID] = append(l, it.ID)
				}
			}
		}
		return it.ID
	}

	collate := experiment.SvcCollate
	if s.nucleotide {
		collate = experiment.SvcCollateNuc
	}
	sample := g.value("sample")
	act(collate, "collate",
		map[string]workflow.Value{"sequences": g.value("sequences")},
		map[string]workflow.Value{"sample": sample})
	encoded := g.value(ontology.TypeGroupEncoded)
	s.encodeID = act(experiment.SvcEncode, "encode",
		map[string]workflow.Value{"sample": sample, "grouping": g.value("grouping")},
		map[string]workflow.Value{"encoded": encoded})
	for p := 0; p < permsPerSession; p++ {
		permuted := g.value("permuted")
		act(experiment.SvcShuffle, "shuffle",
			map[string]workflow.Value{"sample": encoded, "seed": g.value("seed")},
			map[string]workflow.Value{"permuted": permuted})
		sizes := map[string]workflow.Value{}
		size := g.value("size")
		act(experiment.SvcMeasure, "measure",
			map[string]workflow.Value{"data": permuted},
			map[string]workflow.Value{"size": size})
		sizes["size-original"] = size
		for _, codec := range []string{"gzip", "ppmz"} {
			compressed := g.value("compressed")
			act(experiment.CompressorService(codec), "compress",
				map[string]workflow.Value{"sample": permuted},
				map[string]workflow.Value{"compressed": compressed})
			size := g.value("size")
			act(experiment.SvcMeasure, "measure",
				map[string]workflow.Value{"data": compressed},
				map[string]workflow.Value{"size": size})
			sizes["size-"+codec] = size
		}
		act(experiment.SvcCollateSizes, "collate-permutation", sizes,
			map[string]workflow.Value{"sizes": g.value("sizes")})
	}
	for _, l := range s.lineage {
		sort.Slice(l, func(i, j int) bool { return l[i].Compare(l[j]) < 0 })
	}
	return s
}
