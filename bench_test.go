package radiomis

// Benchmarks, one per reproduction experiment (see DESIGN.md's
// per-experiment index) plus micro-benchmarks of the substrates. Each
// solver benchmark reports the paper's quantities — worst-case energy and
// rounds — alongside wall-clock time, so `go test -bench=. -benchmem`
// regenerates the headline numbers of every experiment:
//
//	E1 → BenchmarkLowerBound        E2 → BenchmarkCD
//	E3 → BenchmarkResidual          E4 → BenchmarkBackoff
//	E5 → BenchmarkNoCD              E6 → BenchmarkComparison*
//	E7 → BenchmarkCommitDegree      E8 → BenchmarkBeeping
//	E9 → BenchmarkUnknownDelta      E11 → BenchmarkCongestLuby
//	E12 → BenchmarkBackbone
//
// (E10's ablations and E13's constant sweeps are table-shaped; run them
// via `go run ./cmd/benchsuite -e E10,E13`.)

import (
	"fmt"
	"testing"

	"radiomis/internal/backbone"
	"radiomis/internal/backoff"
	"radiomis/internal/congest"
	"radiomis/internal/graph"
	"radiomis/internal/lowerbound"
	"radiomis/internal/mis"
	"radiomis/internal/radio"
	"radiomis/internal/rng"
)

// benchSolve runs the named algorithm repeatedly on the given family/size
// and reports energy and round metrics.
func benchSolve(b *testing.B, fam graph.Family, n int, algo string) {
	b.Helper()
	g := graph.Generate(fam, n, rng.New(uint64(n)))
	p := mis.ParamsDefault(g.N(), g.MaxDegree())
	var maxE, rounds, failures uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mis.Run(algo, g, p, mis.RunOpts{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxEnergy() > maxE {
			maxE = res.MaxEnergy()
		}
		rounds += res.Rounds
		if res.Check(g) != nil {
			failures++
		}
	}
	b.ReportMetric(float64(maxE), "maxEnergy")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(failures), "failures")
}

// BenchmarkCD regenerates experiment E2 (Theorem 2): Algorithm 1's energy
// and rounds across network sizes.
func BenchmarkCD(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("gnp/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGNP, n, "cd")
		})
	}
	b.Run("clique/n=512", func(b *testing.B) {
		benchSolve(b, graph.FamilyClique, 512, "cd")
	})
}

// BenchmarkBeeping regenerates experiment E8 (§3.1): Algorithm 1 in the
// beeping model.
func BenchmarkBeeping(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGrid, n, "beep")
		})
	}
}

// BenchmarkNoCD regenerates experiment E5 (Theorem 10): Algorithm 2's
// energy and rounds across network sizes.
func BenchmarkNoCD(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("gnp/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGNP, n, "nocd")
		})
	}
}

// BenchmarkComparisonCD regenerates the CD half of experiment E6: the
// naive Luby baseline on the same workloads as BenchmarkCD.
func BenchmarkComparisonCD(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("naive-luby/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGNP, n, "naive-cd")
		})
	}
}

// BenchmarkComparisonNoCD regenerates the no-CD half of experiment E6:
// the Davies-style baseline and the naive simulation.
func BenchmarkComparisonNoCD(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("davies/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGNP, n, "lowdegree")
		})
	}
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("naive-sim/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGNP, n, "naive-nocd")
		})
	}
}

// BenchmarkUnknownDelta regenerates experiment E9 (§1.1): the unknown-Δ
// wrapper's overhead.
func BenchmarkUnknownDelta(b *testing.B) {
	for _, n := range []int{48, 96} {
		b.Run(fmt.Sprintf("gnp/n=%d", n), func(b *testing.B) {
			benchSolve(b, graph.FamilyGNP, n, "unknown-delta")
		})
	}
}

// BenchmarkLowerBound regenerates experiment E1 (Theorem 1): failure
// probability of budgeted strategies at, below, and above the ½·log₂ n
// threshold.
func BenchmarkLowerBound(b *testing.B) {
	for _, budget := range []int{2, 5, 20} {
		b.Run(fmt.Sprintf("oblivious/n=1024/b=%d", budget), func(b *testing.B) {
			var failSum float64
			for i := 0; i < b.N; i++ {
				p, err := lowerbound.FailureProbOblivious(lowerbound.Config{
					N: 1024, Budget: budget, Trials: 20, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				failSum += p
			}
			b.ReportMetric(failSum/float64(b.N), "failureProb")
		})
	}
}

// BenchmarkResidual regenerates experiment E3 (Lemma 5): per-phase
// residual-edge shrinkage of the classical Luby reference.
func BenchmarkResidual(b *testing.B) {
	r := rng.New(3)
	g := graph.GNP(512, 8.0/512, r)
	b.ResetTimer()
	var phases int
	for i := 0; i < b.N; i++ {
		_, stats := graph.LubySequential(g, rng.New(uint64(i)))
		phases = len(stats)
	}
	b.ReportMetric(float64(phases), "phases")
}

// BenchmarkCommitDegree regenerates experiment E7 (Corollary 13): the
// committed subgraph's maximum degree after one competition.
func BenchmarkCommitDegree(b *testing.B) {
	g := graph.GNP(512, 8.0/512, rng.New(4))
	p := mis.ParamsDefault(g.N(), g.MaxDegree())
	b.ResetTimer()
	var worst int
	for i := 0; i < b.N; i++ {
		deg, _, err := mis.CommittedSubgraphMaxDegree(g, p, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if deg > worst {
			worst = deg
		}
	}
	b.ReportMetric(float64(worst), "maxCommitDegree")
	b.ReportMetric(float64(p.CommitDegree()), "bound")
}

// BenchmarkBackoff regenerates experiment E4 (Lemmas 8–9): one full
// Rec-EBackoff under contention.
func BenchmarkBackoff(b *testing.B) {
	for _, senders := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			g := graph.Star(senders + 1)
			var heardCount int
			for i := 0; i < b.N; i++ {
				rr, err := radio.Run(g, radio.Config{Model: radio.ModelNoCD, Seed: uint64(i)},
					func(env *radio.Env) int64 {
						if env.ID() == 0 {
							if backoff.Receive(env, 16, 64, 0) {
								return 1
							}
							return 0
						}
						backoff.Send(env, 16, 64, 1)
						return 0
					})
				if err != nil {
					b.Fatal(err)
				}
				heardCount += int(rr.Outputs[0])
			}
			b.ReportMetric(float64(heardCount)/float64(b.N), "hearRate")
		})
	}
}

// BenchmarkEngine measures the simulator's raw throughput: awake
// node-rounds per second on a dense graph with every node active.
func BenchmarkEngine(b *testing.B) {
	g := graph.Complete(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := radio.Run(g, radio.Config{Model: radio.ModelCD, Seed: uint64(i)},
			func(env *radio.Env) int64 {
				for r := 0; r < 100; r++ {
					if env.Rand().Int63()&1 == 1 {
						env.TransmitBit()
					} else {
						env.Listen()
					}
				}
				return 0
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*100), "nodeRounds/op")
}

// BenchmarkGraphGen measures generator throughput (substrate sanity).
func BenchmarkGraphGen(b *testing.B) {
	b.Run("gnp/n=4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.GNP(4096, 8.0/4096, rng.New(uint64(i)))
		}
	})
	b.Run("unitdisk/n=4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.UnitDisk(4096, 0.03, rng.New(uint64(i)))
		}
	})
}

// BenchmarkBackbone regenerates experiment E12: the full application
// pipeline — MIS, CDS construction, TDMA coloring, and one broadcast.
func BenchmarkBackbone(b *testing.B) {
	for _, side := range []int{8, 16} {
		b.Run(fmt.Sprintf("grid/%dx%d", side, side), func(b *testing.B) {
			g := graph.Grid2D(side, side)
			p := mis.ParamsDefault(g.N(), g.MaxDegree())
			var saving float64
			for i := 0; i < b.N; i++ {
				misRun, err := mis.Run("cd", g, p, mis.RunOpts{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				bb, err := backbone.Build(g, misRun.InMIS)
				if err != nil {
					b.Fatal(err)
				}
				c := backbone.ColorBackbone(g, bb)
				bc, err := backbone.Broadcast(g, bb, c, 0, 1, 0, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				nf, err := backbone.NaiveFlood(g, 0, 1, 0, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if bc.AvgEnergy() > 0 {
					saving = nf.AvgEnergy() / bc.AvgEnergy()
				}
			}
			b.ReportMetric(saving, "energySaving")
		})
	}
}

// BenchmarkSolveBatch measures the batch-scheduling serving path on the
// many-small-graphs workload it exists for: thousands of conflict graphs
// peeled into execution batches per second. The "planner" variant is the
// amortized path and must show 0 allocs/op once warm — the contract
// scripts/benchallocs.py guards in CI; "oneshot" is the per-call
// convenience entry point, allocating its caller-owned plan.
func BenchmarkSolveBatch(b *testing.B) {
	const nGraphs = 64
	for _, n := range []int{64, 256} {
		graphs := make([]*graph.Graph, nGraphs)
		for i := range graphs {
			graphs[i] = graph.GNP(n, 8.0/float64(n), rng.New(uint64(i+1)))
		}
		stat := func(b *testing.B, plan *BatchPlan, batches *int) {
			s := plan.Stats()
			*batches += s.Batches
			if s.Vertices != n {
				b.Fatalf("plan covers %d vertices, want %d", s.Vertices, n)
			}
		}

		b.Run(fmt.Sprintf("planner/n=%d", n), func(b *testing.B) {
			pl := NewBatchPlanner()
			defer pl.Close()
			var batches int
			for _, g := range graphs { // warm every buffer before timing
				if _, err := pl.Batches(g, BatchOptions{Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := pl.Batches(graphs[i%nGraphs], BatchOptions{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				stat(b, plan, &batches)
			}
			b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
		})

		b.Run(fmt.Sprintf("oneshot/n=%d", n), func(b *testing.B) {
			var batches int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := SolveBatch(graphs[i%nGraphs], BatchOptions{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				stat(b, plan, &batches)
			}
			b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
		})
	}
}

// BenchmarkCongestLuby regenerates experiment E11's CONGEST row.
func BenchmarkCongestLuby(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("gnp/n=%d", n), func(b *testing.B) {
			g := graph.Generate(graph.FamilyGNP, n, rng.New(uint64(n)))
			var worst uint64
			var avg float64
			for i := 0; i < b.N; i++ {
				res, err := congest.SolveLuby(g, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if res.MaxAwake() > worst {
					worst = res.MaxAwake()
				}
				avg = res.AvgAwake()
			}
			b.ReportMetric(float64(worst), "maxAwake")
			b.ReportMetric(avg, "avgAwake")
		})
	}
}
