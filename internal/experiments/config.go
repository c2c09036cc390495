// Package experiments contains one runner per figure of the paper's
// evaluation (§7), plus the sensitivity sweep of footnote 3 and the ablation
// studies DESIGN.md calls out. Every runner is deterministic given its
// config seed and returns a typed result that can be rendered as an ASCII
// table or exported via abg/internal/trace.
//
// Catalogue fixes every experiment's parameters at each Scale (full is the
// paper's setup: P=128, L=1000, 50 jobs per transition factor 2..100, 5000
// job sets); cmd/abgexp and cmd/abgreport both run it. The runners take
// explicit size parameters so tests can use small instances.
package experiments

import (
	"abg/internal/feedback"
	"abg/internal/sched"
)

// Config carries the machine and scheduler parameters shared by all
// experiments.
type Config struct {
	// Seed drives all workload generation.
	Seed uint64
	// P is the machine size (paper: 128) and L the quantum length
	// (paper: 1000 steps).
	P, L int
	// R is ABG's convergence rate (paper: 0.2).
	R float64
	// Rho and Delta are A-Greedy's multiplicative factor and utilization
	// threshold (paper setup: ρ=2 as stated; δ=0.8 per He et al. [12]).
	Rho, Delta float64
}

// Defaults returns the paper's simulation parameters.
func Defaults() Config {
	return Config{Seed: 2008, P: 128, L: 1000, R: 0.2, Rho: 2, Delta: 0.8}
}

// abgPolicy returns a fresh A-Control policy per job.
func (c Config) abgPolicy() feedback.Policy { return feedback.NewAControl(c.R) }

// agreedyPolicy returns a fresh A-Greedy policy per job.
func (c Config) agreedyPolicy() feedback.Policy { return feedback.NewAGreedy(c.Rho, c.Delta) }

// abgScheduler returns ABG's task scheduler (B-Greedy).
func (c Config) abgScheduler() sched.Scheduler { return sched.BGreedy() }

// agreedyScheduler returns A-Greedy's task scheduler (plain greedy).
func (c Config) agreedyScheduler() sched.Scheduler { return sched.Greedy() }
