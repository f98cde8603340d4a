package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"distflow/internal/capprox"
	"distflow/internal/congest"
	"distflow/internal/graph"
	"distflow/internal/pushrelabel"
	"distflow/internal/seqflow"
	"distflow/internal/sherman"
	"distflow/internal/trivialflow"
)

// buildAndSolve runs the full pipeline (approximator + gradient descent)
// and returns the flow result plus total charged rounds.
func buildAndSolve(g *graph.Graph, s, t int, eps float64, seed int64) (*sherman.FlowResult, int64, error) {
	apx, err := capprox.Build(g, capprox.Config{ExactCuts: true}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, 0, err
	}
	fr, err := sherman.MaxFlow(g, apx, s, t, sherman.Config{Epsilon: eps})
	if err != nil {
		return nil, 0, err
	}
	return fr, apx.Ledger.Total() + fr.Ledger.Total(), nil
}

// E1RoundsVsN reproduces Theorem 1.1's round complexity separation: the
// near-optimal algorithm's (D+√n)·n^{o(1)} rounds against distributed
// push-relabel (Ω(n²), §1.2) and the trivial Θ(m+D) collect-and-solve.
func E1RoundsVsN(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "round complexity vs n (grid family, eps=0.5)",
		Claim:   "Thm 1.1: (1+eps)-approx max flow in (D+sqrt(n))*n^o(1) rounds; first sub-quadratic bound",
		Columns: []string{"n", "m", "D", "D+sqrt(n)", "this-work", "overhead", "push-relabel", "trivial(m+D)"},
		Notes: "medians over seeds; this-work = charged rounds (construction+solve); overhead = this-work/(D+sqrt(n)), " +
			"the realized n^o(1) factor (must grow sub-linearly in n; the asymptotic crossover vs the baselines lies far " +
			"beyond laptop sizes — the paper's claim is the growth exponent, which the rows exhibit). push-relabel and " +
			"trivial are fully measured message-passing runs; push-relabel uses capacity-8 grids so heights must climb.",
	}
	sizes := pick(s, []int{16, 36, 64}, []int{36, 64, 144, 256, 400})
	seeds := pick(s, []int64{7}, []int64{7, 8, 9})
	for _, n := range sizes {
		side := int(math.Sqrt(float64(n)))
		var oursAll, prAll, tvAll []float64
		var g *graph.Graph
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(int64(n) + seed))
			g = graph.CapUniform(graph.Grid(side, side), 8, rng)
			src, dst := 0, g.N()-1
			_, ours, err := buildAndSolve(g, src, dst, 0.5, seed)
			if err != nil {
				return nil, fmt.Errorf("e1 n=%d: %w", n, err)
			}
			oursAll = append(oursAll, float64(ours))
			nw := congest.NewNetwork(g, congest.WithSeed(seed))
			pr, err := pushrelabel.MaxFlow(nw, src, dst, 40_000_000)
			if err != nil {
				return nil, fmt.Errorf("e1 push-relabel n=%d: %w", n, err)
			}
			prAll = append(prAll, float64(pr.Stats.Rounds))
			tv, err := trivialflow.MaxFlow(congest.NewNetwork(g, congest.WithSeed(seed)), src, dst, nil)
			if err != nil {
				return nil, fmt.Errorf("e1 trivial n=%d: %w", n, err)
			}
			tvAll = append(tvAll, float64(tv.Stats.Rounds))
		}
		_, ours := summarize(oursAll)
		_, pr := summarize(prAll)
		_, tv := summarize(tvAll)
		d := g.Diameter()
		ref := float64(d) + math.Sqrt(float64(g.N()))
		t.AddRow(
			fmt.Sprint(g.N()), fmt.Sprint(g.M()), fmt.Sprint(d),
			fmt.Sprintf("%.0f", ref),
			fmt.Sprintf("%.0f", ours),
			fmt.Sprintf("%.0f", ours/ref),
			fmt.Sprintf("%.0f", pr),
			fmt.Sprintf("%.0f", tv),
		)
	}
	return t, nil
}

// E5ApproxQuality reproduces the (1+eps) guarantee of Theorem 1.1:
// value vs exact max flow across eps.
func E5ApproxQuality(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "approximation quality vs eps",
		Claim:   "Thm 1.1: flow value >= OPT/(1+eps); flow exactly feasible",
		Columns: []string{"graph", "eps", "OPT", "value", "OPT/value", "1+eps", "iterations", "feasible"},
	}
	rng := rand.New(rand.NewSource(21))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid6x6", graph.CapUniform(graph.Grid(6, 6), 8, rng)},
		{"gnp32", graph.CapUniform(graph.GNP(32, 0.15, rng), 10, rng)},
	}
	epss := pick(s, []float64{0.5}, []float64{0.8, 0.5, 0.3, 0.15})
	for _, gg := range graphs {
		src, dst := 0, gg.g.N()-1
		opt := float64(seqflow.MinCutValue(gg.g, src, dst))
		for _, eps := range epss {
			fr, _, err := buildAndSolve(gg.g, src, dst, eps, 5)
			if err != nil {
				return nil, fmt.Errorf("e5 %s eps=%v: %w", gg.name, eps, err)
			}
			capEx, consErr := seqflow.CheckFlow(gg.g, fr.Flow, src, dst, fr.Value)
			feasible := "yes"
			if capEx > 1e-9 || consErr > 1e-6 {
				feasible = fmt.Sprintf("NO (%g,%g)", capEx, consErr)
			}
			t.AddRow(gg.name, fmt.Sprint(eps), fmt.Sprint(opt),
				fmt.Sprintf("%.3f", fr.Value),
				fmt.Sprintf("%.3f", opt/fr.Value),
				fmt.Sprintf("%.2f", 1+eps),
				fmt.Sprint(fr.Iterations), feasible)
		}
	}
	return t, nil
}

// E7GradientIterations reproduces the O(alpha^2 * eps^-3 * log n)
// iteration bound of AlmostRoute (§9.1) and the A2 ablation (adaptive
// vs fixed alpha).
func E7GradientIterations(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "AlmostRoute iterations vs eps and alpha",
		Claim:   "§9.1/Cor 9.2: O(alpha^2 eps^-3 log n) gradient iterations",
		Columns: []string{"eps", "alpha", "iterations", "iters*eps^3/alpha^2"},
		Notes:   "normalized column should stay roughly flat if the eps^-3*alpha^2 shape holds; plain rows disable acceleration only, so below eps=0.2 they also run the fixed continuation levels (eps=0.15 starts at 0.45)",
	}
	rng := rand.New(rand.NewSource(23))
	g := graph.CapUniform(graph.Grid(5, 5), 6, rng)
	apx, err := capprox.Build(g, capprox.Config{ExactCuts: true}, rand.New(rand.NewSource(3)))
	if err != nil {
		return nil, err
	}
	b := graph.STDemand(g.N(), 0, g.N()-1, 1)
	epss := pick(s, []float64{0.5, 0.3}, []float64{0.8, 0.5, 0.3, 0.2, 0.15})
	alphas := pick(s, []float64{0, 2}, []float64{0, 1.5, 2, 4})
	for _, eps := range epss {
		for _, alpha := range alphas {
			// The claim under test is the PLAIN gradient bound, so the
			// accelerated stepper (on by default, DESIGN.md §5) is
			// disabled for these rows. The ε-continuation schedule has
			// no switch: it adds coarser levels only below ε = 0.2.
			rr, err := sherman.AlmostRoute(g, apx, b, eps, sherman.Config{
				Alpha:               alpha,
				DisableAcceleration: true,
			}, nil)
			if err != nil {
				return nil, fmt.Errorf("e7 eps=%v alpha=%v: %w", eps, alpha, err)
			}
			norm := float64(rr.Iterations) * math.Pow(eps, 3) / (rr.AlphaUsed * rr.AlphaUsed)
			label := fmt.Sprint(alpha)
			if alpha == 0 {
				label = fmt.Sprintf("auto(%.2f)", rr.AlphaUsed)
			}
			t.AddRow(fmt.Sprint(eps), label, fmt.Sprint(rr.Iterations), fmt.Sprintf("%.3f", norm))
		}
		// The default accelerated stepper (§5, footnote 3 territory),
		// for comparison against the plain rows above.
		rr, err := sherman.AlmostRoute(g, apx, b, eps, sherman.Config{}, nil)
		if err != nil {
			return nil, fmt.Errorf("e7 accel eps=%v: %w", eps, err)
		}
		norm := float64(rr.Iterations) * math.Pow(eps, 3) / (rr.AlphaUsed * rr.AlphaUsed)
		t.AddRow(fmt.Sprint(eps), "auto+accel", fmt.Sprint(rr.Iterations), fmt.Sprintf("%.3f", norm))
	}
	return t, nil
}
