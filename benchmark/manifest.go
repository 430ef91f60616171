package main

import "encoding/json"

// manifestFile is the shape of BENCHMARK.json at the repository root:
// exactly these keys. It is generated from the tables in spec.go and
// layers.go (`go run . -print-manifest`), and a test keeps the two
// equal.
type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.name, e.unit, e.better, e.bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{l.name, l.unit, l.better})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}
