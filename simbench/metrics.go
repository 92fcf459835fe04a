package main

import (
	_ "embed"
	"encoding/json"
)

// metricDef describes one reported metric. metrics.json holds the table;
// BENCHMARK.json repeats each metric's name, unit and direction (a test
// keeps the two in step) and adds nothing else, so the layer, the
// end-to-end metrics a per-layer metric should move and the workload it
// should move them on live here.
type metricDef struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound,omitempty"`
	Layer    string   `json:"layer,omitempty"`
	Moves    []string `json:"moves,omitempty"`
	Workload string   `json:"workload,omitempty"`
}

//go:embed metrics.json
var metricsJSON []byte

var (
	endToEnd    []metricDef
	perLayer    []metricDef
	heldOutSeed int64
)

func init() {
	var t struct {
		HeldOutSeed int64       `json:"held_out_seed"`
		EndToEnd    []metricDef `json:"end_to_end"`
		PerLayer    []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(metricsJSON, &t); err != nil {
		panic("simbench: metrics.json: " + err.Error()) // embedded at build time
	}
	endToEnd, perLayer, heldOutSeed = t.EndToEnd, t.PerLayer, t.HeldOutSeed
}
