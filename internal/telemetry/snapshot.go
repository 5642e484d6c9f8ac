package telemetry

import (
	"encoding/json"
	"io"
)

// Snapshot is a merged, read-only view of the registry: per-shard
// counters summed, collectors folded in, histograms merged. Marshaling
// a Snapshot is deterministic — maps marshal with sorted keys and no
// wall-clock field is included — so two identical seeded runs produce
// byte-identical documents (the golden-test property).
type Snapshot struct {
	// Shards is the registry's shard count.
	Shards int `json:"shards"`
	// Counters maps counter names to merged totals; zero counters are
	// included so the document doubles as the schema.
	Counters map[string]uint64 `json:"counters"`
	// Gauges maps gauge names to the per-shard sum (for levels like the
	// send window this is the fleet-wide aggregate; divide by Shards
	// for a mean).
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps histogram names to merged bucket views; empty
	// histograms are omitted.
	Histograms map[string]*HistSnapshot `json:"histograms"`
	// PerShard breaks the counters down by shard (only with >1 shard;
	// zero slots are omitted per shard).
	PerShard []map[string]uint64 `json:"per_shard,omitempty"`
	// TraceSpans is the total lifecycle spans the attached span tracer
	// recorded across streams (0 when no tracer is attached).
	TraceSpans uint64 `json:"trace_spans"`
	// TraceExemplars is how many anomaly exemplars the tracer captured.
	TraceExemplars uint64 `json:"trace_exemplars"`
}

// HitRate is unique responders per probe sent.
func (s *Snapshot) HitRate() float64 {
	sent := s.Counters[ScanSent.String()]
	if sent == 0 {
		return 0
	}
	return float64(s.Counters[ScanUnique.String()]) / float64(sent)
}

// Snapshot merges the registry's shards and collectors into one
// consistent-enough view (counters are read atomically slot by slot;
// cross-slot skew is bounded by whatever the writers did mid-read,
// which a monitor display tolerates and a quiesced scan never sees).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]*HistSnapshot{},
	}
	if r == nil {
		return s
	}
	s.Shards = len(r.shards)
	if t := r.Tracer(); t != nil {
		s.TraceSpans = t.SpansRecorded()
		s.TraceExemplars = uint64(t.ExemplarCount())
	}
	for c, total := range r.collectTotals() {
		s.Counters[Counter(c).String()] = total
	}
	for g := Gauge(0); g < NumGauges; g++ {
		var v int64
		for _, sh := range r.shards {
			v += sh.gauges[g].Load()
		}
		s.Gauges[g.String()] = v
	}
	for h := Hist(0); h < NumHists; h++ {
		if hs := mergeHist(r.shards, h); hs != nil {
			s.Histograms[h.String()] = hs
		}
	}
	if len(r.shards) > 1 {
		for _, sh := range r.shards {
			m := map[string]uint64{}
			for c := Counter(0); c < NumCounters; c++ {
				if v := sh.counters[c].Load(); v > 0 {
					m[c.String()] = v
				}
			}
			s.PerShard = append(s.PerShard, m)
		}
	}
	return s
}

// WriteJSON writes the snapshot as one indented, deterministic JSON
// document — the -status-json artifact.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
