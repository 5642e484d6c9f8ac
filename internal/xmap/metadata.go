package xmap

import (
	"encoding/json"
	"io"
	"time"
)

// Metadata is the end-of-scan summary record, the analogue of ZMap's
// scan metadata output: enough to audit a measurement after the fact.
type Metadata struct {
	Window          string    `json:"window"`
	Probe           string    `json:"probe"`
	Shards          int       `json:"shards"`
	ShardIndex      int       `json:"shard_index"`
	ProbesPerTarget int       `json:"probes_per_target"`
	Rate            int       `json:"rate_pps"`
	Start           time.Time `json:"start"`
	End             time.Time `json:"end"`

	Targets    uint64  `json:"targets"`
	Sent       uint64  `json:"sent"`
	SendErrors uint64  `json:"send_errors"`
	Received   uint64  `json:"received"`
	Invalid    uint64  `json:"invalid"`
	Duplicates uint64  `json:"duplicates"`
	Unique     uint64  `json:"unique_responders"`
	Blocked    uint64  `json:"blocked_targets"`
	HitRate    float64 `json:"hit_rate"`
}

// NewMetadata assembles the record for a finished run of cfg.
func NewMetadata(cfg Config, stats Stats, end time.Time) Metadata {
	return Metadata{
		Window:          cfg.Window.String(),
		Probe:           probeOrDefault(cfg.Probe).Name(),
		Shards:          max(cfg.Shards, 1),
		ShardIndex:      cfg.ShardIndex,
		ProbesPerTarget: max(cfg.ProbesPerTarget, 1),
		Rate:            cfg.Rate,
		Start:           end.Add(-stats.Elapsed),
		End:             end,
		Targets:         stats.Targets,
		Sent:            stats.Sent,
		SendErrors:      stats.SendErrors,
		Received:        stats.Received,
		Invalid:         stats.Invalid,
		Duplicates:      stats.Duplicates,
		Unique:          stats.Unique,
		Blocked:         stats.Blocked,
		HitRate:         stats.HitRate(),
	}
}

// WriteJSON emits the record as one indented JSON object.
func (m Metadata) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
