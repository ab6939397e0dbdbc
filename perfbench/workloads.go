package main

import (
	"context"
	"slices"
)

// seedBalance is every account's opening balance: far above what any run
// withdraws, so no withdrawal is ever refused.
const seedBalance = 1_000_000_000

// workloads are the benchmark's traffic mixes. Sizes are fixed by the
// workload; README.md records why each exists.
var workloads = []*workload{
	{
		name: "svc-zipf", accounts: 512, mix: svcMix,
		perSecond: 20_000, setups: 25, traceEvery: 3,
	},
	{
		name: "durable-10k", accounts: 10_000, mix: durableMix,
		perSecond: 16_000, setups: 3, coldStart: true, traceEvery: 5,
	},
	{
		name: "hot-audit", accounts: 16, mix: auditMix,
		perSecond: 150_000, setups: 100, traceEvery: 64,
	},
	{
		name: "cluster-repl", accounts: 16, mix: clusterMix,
		perSecond: 8_000, setups: 100, traceEvery: 2,
	},
}

func init() {
	for _, w := range workloads {
		w.build = builderFor(w)
	}
}

// builderFor returns the set-up function of w's workload, sized by w.
func builderFor(w *workload) func(context.Context, *env, *tracer, *result) (instance, error) {
	switch w.name {
	case "svc-zipf":
		return buildSvc(w)
	case "durable-10k":
		return buildDurable(w)
	case "hot-audit":
		return buildAudit(w)
	case "cluster-repl":
		return buildCluster(w)
	}
	panic("no builder for workload " + w.name)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) *workload {
	i := slices.IndexFunc(workloads, func(w *workload) bool { return w.name == name })
	if i < 0 {
		return nil
	}
	return workloads[i]
}
