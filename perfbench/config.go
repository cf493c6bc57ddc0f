package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/qstats"
	"repro/internal/serve"
)

// pinnedConfig is config.json: the configuration the benchmark's
// numbers were taken under, with every program default resolved to its
// value.
//
//go:embed config.json
var pinnedConfig []byte

type engineSettings struct {
	Indexed             bool `json:"indexed"`
	IndexThreshold      int  `json:"index_threshold"`
	IndexCacheCapacity  int  `json:"index_cache_capacity"`
	PlanCacheCapacity   int  `json:"plan_cache_capacity"`
	EngineCacheCapacity int  `json:"engine_cache_capacity"`
	AnswerCache         bool `json:"answer_cache"`
	Parallel            bool `json:"parallel"`
	UnfoldRewrite       bool `json:"unfold_rewrite"`
}

type serveSettings struct {
	DefaultTimeout     string `json:"default_timeout"`
	MaxTimeout         string `json:"max_timeout"`
	MaxInFlight        int    `json:"max_in_flight"`
	SlowQuery          string `json:"slow_query"`
	TraceSampleEvery   int    `json:"trace_sample_every"`
	QueryStatsCapacity int    `json:"query_stats_capacity"`
	EventLog           bool   `json:"event_log"`
}

type driverSettings struct {
	ClosedLoopClients int    `json:"closed_loop_clients"`
	OpenLoopWorkers   int    `json:"open_loop_workers"`
	MinSetups         int    `json:"min_setups"`
	MaxSetups         int    `json:"max_setups"`
	SetupBudget       string `json:"setup_budget"`
	MeasureSegments   int    `json:"measure_segments"`
	LatencyWindow     int    `json:"latency_window"`
	IsolatedRequests  int    `json:"isolated_alloc_requests"`
}

// effectiveConfig renders the configuration this build of the benchmark
// runs. Fields the benchmark leaves zero take the program's defaults,
// so a changed default changes this text.
func effectiveConfig() []byte {
	orDefault := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}
	cfg := struct {
		Engine    engineSettings `json:"engine"`
		Serve     serveSettings  `json:"serve"`
		Driver    driverSettings `json:"driver"`
		Workloads []workload     `json:"workloads"`
	}{
		Engine: engineSettings{
			Indexed:             engineConfig.Indexed,
			IndexThreshold:      orDefault(engineConfig.IndexThreshold, core.DefaultIndexThreshold),
			IndexCacheCapacity:  orDefault(engineConfig.IndexCacheCapacity, core.DefaultIndexCacheCapacity),
			PlanCacheCapacity:   orDefault(engineConfig.PlanCacheCapacity, core.DefaultPlanCacheCapacity),
			EngineCacheCapacity: policy.DefaultEngineCacheCapacity,
			AnswerCache:         engineConfig.AnswerCache,
			Parallel:            engineConfig.Parallel,
			UnfoldRewrite:       engineConfig.UnfoldRewrite,
		},
		Serve: serveSettings{
			DefaultTimeout:     serve.DefaultTimeout.String(),
			MaxTimeout:         serve.DefaultMaxTimeout.String(),
			MaxInFlight:        orDefault(serveConfig.MaxInFlight, serve.DefaultMaxInFlight),
			SlowQuery:          serve.DefaultSlowQuery.String(),
			TraceSampleEvery:   orDefault(serveConfig.TraceSampleEvery, serve.DefaultTraceSampling),
			QueryStatsCapacity: orDefault(serveConfig.QueryStatsCapacity, qstats.DefaultCapacity),
			EventLog:           serveConfig.EventLog != nil,
		},
		Driver: driverSettings{
			ClosedLoopClients: closedClients,
			OpenLoopWorkers:   openWorkers,
			MinSetups:         minSetups,
			MaxSetups:         maxSetups,
			SetupBudget:       setupBudget.String(),
			MeasureSegments:   measureSegments,
			LatencyWindow:     latencyWindow,
			IsolatedRequests:  isolatedRequests,
		},
		Workloads: workloads,
	}
	out, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return append(out, '\n')
}

// reportConfigDrift warns when the configuration differs from the
// pinned one, so a changed default is visible next to the numbers.
func reportConfigDrift() {
	if cur := effectiveConfig(); !bytes.Equal(cur, pinnedConfig) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: configuration differs from config.json; running with:\n%s", cur)
	}
}
