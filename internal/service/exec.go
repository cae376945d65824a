package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/knl"
	"repro/internal/workload"
)

// Executor owns the simulated machines: one core.System per KNL SKU,
// built lazily and shared by every worker (the machine model is
// read-only after construction, which is what lets the harness pool
// and this service fan out over it).
type Executor struct {
	mu      sync.Mutex
	systems map[string]*core.System
}

// NewExecutor builds an empty executor.
func NewExecutor() *Executor {
	return &Executor{systems: make(map[string]*core.System)}
}

// System returns the shared system for a SKU, building it on first
// use.
func (e *Executor) System(sku string) (*core.System, error) {
	if sku == "" {
		sku = campaign.DefaultSKU
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if sys, ok := e.systems[sku]; ok {
		return sys, nil
	}
	sys, err := core.NewSystem()
	if err != nil {
		return nil, err
	}
	if sku != campaign.DefaultSKU {
		chip, err := knl.ChipForSKU(sku)
		if err != nil {
			return nil, err
		}
		mach, err := engine.NewMachine(chip)
		if err != nil {
			return nil, err
		}
		sys.Machine = mach
	}
	e.systems[sku] = sys
	return sys, nil
}

// RunPoint executes one resolved point at its fidelity. A point whose
// configuration cannot run (does not fit, not measured) is a valid
// outcome — the paper prints no bar — and is cacheable; only
// request-shaped problems (unknown workload, unknown SKU, unknown
// fidelity) are errors. Cancellation is checked before the simulation
// starts: points are the unit of work, so a cancelled campaign stops
// at the next point boundary rather than mid-model.
func (e *Executor) RunPoint(ctx context.Context, p campaign.Point) (campaign.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return campaign.Outcome{}, err
	}
	switch p.Fidelity {
	case "", campaign.FidelityModel:
	case campaign.FidelityTrace:
		return e.runTracePoint(ctx, p)
	case campaign.FidelityAdvise:
		return e.runAdvisePoint(p)
	case campaign.FidelityCluster:
		return e.runClusterPoint(p)
	case campaign.FidelityReplay:
		// Replay points need the trace store, which the server owns;
		// its campaigns run them as stream groups (streamCompute).
		return campaign.Outcome{}, fmt.Errorf("service: replay points are served by the server's trace store, not the bare executor")
	default:
		return campaign.Outcome{}, fmt.Errorf("service: unknown fidelity %q (model|trace|replay|advise|cluster)", p.Fidelity)
	}
	sys, err := e.System(p.SKU)
	if err != nil {
		return campaign.Outcome{}, err
	}
	mdl, err := sys.Workload(p.Workload)
	if err != nil {
		return campaign.Outcome{}, err
	}
	out := campaign.Outcome{Point: p, Metric: mdl.Info().Metric}
	v, err := mdl.Predict(sys.Machine, p.Config, p.Size, p.Threads)
	if err != nil {
		var nofit engine.ErrDoesNotFit
		if errors.As(err, &nofit) || errors.Is(err, workload.ErrNotMeasured) {
			out.Unavailable = err.Error()
			return out, nil
		}
		return campaign.Outcome{}, fmt.Errorf("service: %s: %w", p, err)
	}
	out.Value = v
	return out, nil
}
