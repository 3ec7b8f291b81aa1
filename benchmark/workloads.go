package main

import (
	"math"
	"time"

	"substream/internal/server"
)

// Wire content types of the two ingest lanes the workloads drive.
const (
	ctypeBinary       = server.ContentTypeBinary
	ctypeTextWeighted = server.ContentTypeTextWeighted
)

// Pipeline shape pinned in every StreamConfig so the work does not
// change with the host the benchmark runs on.
const (
	pinShards = 2
	pinBatch  = 1024
)

// sampleP is the Bernoulli rate of every in-agent-sampled stream.
const sampleP = 0.05

// streamDef is one named stream of a workload, created on every agent.
type streamDef struct {
	name     string
	cfg      server.StreamConfig
	weighted bool // ingested as text/vnd.substream.weighted
}

// tolerances are the pass/fail limits of a workload's estimate checks;
// an estimate outside its limit counts as a failed operation. They are
// the paper's guarantees at the workload's p, not tuned to the data:
//
//   - fk: Theorem 1's (1±ε) at the streams' default ε = 0.2, for a p far
//     above the theorem's minimum on a 4M-item Zipf stream.
//   - f0: Lemma 8's multiplicative 4/√p, both ways.
//   - entropy: the additive-ε·H regime of Theorem 5 at ε = 0.2 (only
//     checked where every item reaches the estimator, p = 1).
//   - subset: six standard deviations of the VarOpt subset-sum
//     estimator under the CDKLT bound Var ≤ τ·W_S with τ ≤ W/(k−1),
//     plus the Bernoulli stage's own variance (see subsetTolerance).
//   - hitter: the relative error allowed on the frequency reported for
//     rank 1, which Theorems 6/7 require to be reported at all.
type tolerances struct {
	fkRel      float64
	f0Factor   float64
	entropyRel float64
	hitterRel  float64
}

// workloadDef is one benchmark workload. Every workload has the same two
// phases — closed-loop ingest, then the ship/query loop — and differs in
// which one is its measured window and in what the streams are.
type workloadDef struct {
	name string
	why  string

	streams   []streamDef
	bodyItems int // items per ingest body

	// fleet runs scale.fleetAgents preloaded agents and makes the
	// ship/query loop the measured window (ingest is then only the loop's
	// own small POSTs); otherwise one agent's closed-loop ingest phase is
	// the window and the loop runs as a short tail after it.
	fleet bool
	// probe is the stream whose collector estimate the freshness sample
	// waits for.
	probe string
	// refreshEvery is the open-loop dashboard period (fleet only: an
	// ingest workload's tail refreshes once per driver cycle).
	refreshEvery time.Duration

	tol tolerances
}

func pinned(c server.StreamConfig) server.StreamConfig {
	c.Shards, c.Batch = pinShards, pinBatch
	return c
}

var workloads = []*workloadDef{
	{
		name:      "ingest_bin_sampled",
		why:       "sampled-NetFlow ingest: 4096-item binary POSTs at p=0.05; socket, decode, ring and sample do the work, so an update gain must not show",
		bodyItems: 4096, probe: "fk",
		streams: []streamDef{
			{name: "fk", cfg: pinned(server.StreamConfig{Stat: "fk", K: 2, P: sampleP, Exact: true})},
		},
		tol: tolerances{fkRel: 0.2},
	},
	{
		name:      "ingest_bin_presampled",
		why:       "presampled 65536-item binary POSTs into the full Monitor: every item reaches UpdateBatch; update and ring back-pressure do the work, so a socket gain must not show",
		bodyItems: 65536, probe: "all",
		streams: []streamDef{
			// P=1: the body IS the stream the estimators see, which is what
			// lets exact truth check every Monitor estimate.
			{name: "all", cfg: pinned(server.StreamConfig{Stat: "all", K: 2, P: 1, Presampled: true})},
		},
		tol: tolerances{fkRel: 0.2, f0Factor: 4, entropyRel: 0.2, hitterRel: 0.2},
	},
	{
		name:      "ingest_text_weighted",
		why:       "weighted text lane: 4096-line key/weight POSTs into VarOpt at p=0.05; text parse, FeedWeightedCopy and the weighted sampler do the work a binary-lane change must not slow",
		bodyItems: 4096, probe: "varopt",
		streams: []streamDef{
			{name: "varopt", weighted: true, cfg: pinned(server.StreamConfig{Stat: "varopt", Budget: 1024, P: sampleP})},
		},
	},
	{
		name:      "fleet_ship_query",
		why:       "16 agents x 4 streams ship to a checkpointing collector while a dashboard queries it: marshal, envelope, collector decode, fold, 16-way query fold and snapshot do the work, ingest almost none",
		bodyItems: 1024, fleet: true, probe: "fk", refreshEvery: 200 * time.Millisecond,
		streams: []streamDef{
			{name: "f0", cfg: pinned(server.StreamConfig{Stat: "f0", P: sampleP, Window: 4, Epoch: server.Duration(24 * time.Hour)})},
			{name: "fk", cfg: pinned(server.StreamConfig{Stat: "fk", K: 2, P: sampleP})},
			{name: "hh1", cfg: pinned(server.StreamConfig{Stat: "hh1", P: sampleP})},
			{name: "varopt", weighted: true, cfg: pinned(server.StreamConfig{Stat: "varopt", Budget: 1024, P: sampleP})},
		},
		tol: tolerances{fkRel: 0.2, f0Factor: 4 / math.Sqrt(sampleP), hitterRel: 0.2},
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scale sizes a run. The full scale is the benchmark of record; the
// smoke scale only proves the harness still builds, runs and passes its
// own checks inside the tier-1 test budget.
type scale struct {
	streamLen    int // items of the logical stream bodies are sliced from
	fleetPreload int // items preloaded into each stream of each fleet agent
	fleetAgents  int // agents of a fleet workload
	setups       int // set-up repetitions; setup_s is their median
	microItems   int // items of the standard stream the layer micro-benchmarks use
	microReps    int // repetitions of the costly collector micro-benchmarks (16-way folds)
}

var (
	fullScale  = scale{streamLen: 1 << 22, fleetPreload: 200_000, fleetAgents: 16, setups: 5, microItems: 1 << 20, microReps: 7}
	smokeScale = scale{streamLen: 1 << 17, fleetPreload: 8192, fleetAgents: 4, setups: 1, microItems: 1 << 15, microReps: 1}
)
