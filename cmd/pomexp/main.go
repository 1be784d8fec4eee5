// Command pomexp regenerates every table and figure of the paper's
// evaluation (experiments E1–E9 of the experiment index in the
// internal/experiments package doc), prints the result tables, and
// writes SVG figures plus a machine-readable summary into -out.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/viz"
)

// experiment is one pomexp run. ids are the -only names that select it:
// E3 and E4 share one run over the Fig. 2 grid.
type experiment struct {
	ids []string
	run func(dir string, rep *strings.Builder) error
}

var experimentList = []experiment{
	{[]string{"e1"}, runE1},
	{[]string{"e2"}, runE2},
	{[]string{"e3", "e4"}, runE34},
	{[]string{"e5"}, runE5},
	{[]string{"e6"}, runE6},
	{[]string{"e7"}, runE7},
	{[]string{"e8"}, runE8},
	{[]string{"e9"}, runE9},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pomexp: ")
	outDir := flag.String("out", "out", "output directory for SVGs and summary")
	only := flag.String("only", "", "run a single experiment: e1…e9, where e3 and e4 share one run (empty = all)")
	flag.Parse()

	selected := func(e experiment) bool { return *only == "" || slices.Contains(e.ids, *only) }
	if !slices.ContainsFunc(experimentList, selected) {
		log.Fatalf("-only %q names no experiment; want one of e1…e9", *only)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	var report strings.Builder
	report.WriteString("# pomexp results\n\n")
	for _, e := range experimentList {
		if !selected(e) {
			continue
		}
		fmt.Printf("=== %s ===\n", strings.ToUpper(e.ids[0]))
		if err := e.run(*outDir, &report); err != nil {
			log.Fatalf("%s: %v", e.ids[0], err)
		}
		fmt.Println()
	}

	summary := filepath.Join(*outDir, "SUMMARY.md")
	if err := os.WriteFile(summary, []byte(report.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("summary written to %s\n", summary)
}

func runE1(dir string, rep *strings.Builder) error {
	res, err := experiments.Fig1aPotentials(5, 512)
	if err != nil {
		return err
	}
	plot := viz.LinePlot{
		Title:  "Fig. 1(a): interaction potentials (σ = 5)",
		XLabel: "phase difference θj − θi", YLabel: "V",
	}
	rows := make([][]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		plot.Series = append(plot.Series, viz.Series{Name: r.Name, Xs: r.Xs, Ys: r.Ys})
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%.4f", r.StableZero), fmt.Sprintf("%.4f", r.MeasuredZero),
		})
	}
	tbl := viz.Table([]string{"potential", "analytic zero", "measured zero"}, rows)
	fmt.Print(tbl)
	fmt.Fprintf(rep, "## E1 — Fig. 1(a)\n\n```\n%s```\n\n", tbl)
	return os.WriteFile(filepath.Join(dir, "fig1a_potentials.svg"), []byte(plot.SVG()), 0o644)
}

func runE2(dir string, rep *strings.Builder) error {
	res, err := experiments.Fig1bScalability(cluster.Meggie(1), 10, 3)
	if err != nil {
		return err
	}
	plot := viz.LinePlot{
		Title:  "Fig. 1(b): socket scalability (" + res.Machine + ")",
		XLabel: "processes per socket", YLabel: "memory bandwidth [MB/s]",
	}
	var rows [][]string
	for _, c := range res.Curves {
		xs := make([]float64, len(c.Points))
		ys := make([]float64, len(c.Points))
		for i, p := range c.Points {
			xs[i] = float64(p.Processes)
			ys[i] = p.BandwidthMBs
		}
		plot.Series = append(plot.Series, viz.Series{Name: c.Kernel, Xs: xs, Ys: ys})
		sat := "never (scalable)"
		if c.SaturationProcs > 0 {
			sat = fmt.Sprintf("%d cores", c.SaturationProcs)
		}
		rows = append(rows, []string{
			c.Kernel,
			fmt.Sprintf("%.0f", c.Points[0].BandwidthMBs),
			fmt.Sprintf("%.0f", c.Points[len(c.Points)-1].BandwidthMBs),
			sat,
		})
	}
	tbl := viz.Table([]string{"kernel", "1-core MB/s", "10-core MB/s", "saturation"}, rows)
	fmt.Print(tbl)
	fmt.Fprintf(rep, "## E2 — Fig. 1(b)\n\n```\n%s```\n\n", tbl)
	return os.WriteFile(filepath.Join(dir, "fig1b_scalability.svg"), []byte(plot.SVG()), 0o644)
}

func runE34(dir string, rep *strings.Builder) error {
	rows, err := experiments.Fig2All()
	if err != nil {
		return err
	}
	var tblRows [][]string
	for _, r := range rows {
		tblRows = append(tblRows, []string{
			r.Label,
			fmt.Sprintf("%.2f", r.MPI.WaveSpeed),
			fmt.Sprintf("%.2f", r.MPI.PostSpread),
			fmt.Sprintf("%.2f", r.Model.WaveSpeed),
			fmt.Sprintf("%.3f", r.Model.MeanAbsGap),
			fmt.Sprintf("%.3f", r.Model.StableZero),
			fmt.Sprintf("%v", r.Model.Resynced),
		})
	}
	tbl := viz.Table(
		[]string{"panel", "MPI wave[r/it]", "MPI postspread", "model wave[r/T]",
			"model |gap|", "2σ/3", "resync"},
		tblRows)
	fmt.Print(tbl)
	fmt.Fprintf(rep, "## E3+E4 — Fig. 2 corner cases\n\n```\n%s```\n\n", tbl)
	return nil
}

func runE5(dir string, rep *strings.Builder) error {
	res, err := experiments.WaveSpeedVsCoupling([]float64{0, 0.5, 1, 2, 4, 8})
	if err != nil {
		return err
	}
	var rows [][]string
	xs := make([]float64, 0, len(res.Model))
	ys := make([]float64, 0, len(res.Model))
	for _, p := range res.Model {
		speed := "no wave"
		if p.Propagated {
			speed = fmt.Sprintf("%.3f", p.Speed)
			xs = append(xs, p.BetaKappa)
			ys = append(ys, p.Speed)
		}
		rows = append(rows, []string{fmt.Sprintf("%g", p.BetaKappa), speed})
	}
	tbl := viz.Table([]string{"βκ", "model wave speed [ranks/period]"}, rows)
	fmt.Print(tbl)

	var mpiRows [][]string
	for _, p := range res.MPI {
		mpiRows = append(mpiRows, []string{
			p.Label, fmt.Sprintf("%.3f", p.Speed), fmt.Sprintf("%d", p.Reached),
		})
	}
	mpiTbl := viz.Table([]string{"MPI config", "speed [ranks/iter]", "ranks reached"}, mpiRows)
	fmt.Print(mpiTbl)
	fmt.Fprintf(rep, "## E5 — wave speed vs coupling\n\n```\n%s\n%s```\n\n", tbl, mpiTbl)

	plot := viz.LinePlot{
		Title:  "Idle-wave speed vs coupling βκ (model)",
		XLabel: "βκ", YLabel: "speed [ranks/period]",
		Series: []viz.Series{{Name: "tanh potential", Xs: xs, Ys: ys}},
	}
	return os.WriteFile(filepath.Join(dir, "e5_wavespeed.svg"), []byte(plot.SVG()), 0o644)
}

func runE6(dir string, rep *strings.Builder) error {
	res, err := experiments.StiffnessSweep([]float64{0.5, 1, 1.5, 2, 3})
	if err != nil {
		return err
	}
	var rows [][]string
	xs := make([]float64, len(res.SigmaSweep))
	ys := make([]float64, len(res.SigmaSweep))
	pred := make([]float64, len(res.SigmaSweep))
	for i, p := range res.SigmaSweep {
		rows = append(rows, []string{
			fmt.Sprintf("%g", p.Sigma),
			fmt.Sprintf("%.4f", p.MeanAbsGap),
			fmt.Sprintf("%.4f", p.PredictedGap),
		})
		xs[i] = p.Sigma
		ys[i] = p.MeanAbsGap
		pred[i] = p.PredictedGap
	}
	tbl := viz.Table([]string{"σ", "settled |gap|", "predicted 2σ/3"}, rows)
	fmt.Print(tbl)
	fmt.Printf("stiffness d=±1 → d=±1,−2: MPI speed ratio %.2f (paper ≈3), model gap ratio %.2f (theory 0.5)\n",
		res.Stiffness.MPISpeedRatio, res.Stiffness.ModelGapRatio)
	fmt.Fprintf(rep, "## E6 — stiffness / σ sweep\n\n```\n%s```\n\nMPI speed ratio %.2f, model gap ratio %.2f\n\n",
		tbl, res.Stiffness.MPISpeedRatio, res.Stiffness.ModelGapRatio)

	plot := viz.LinePlot{
		Title:  "Settled adjacent gap vs interaction horizon σ",
		XLabel: "σ", YLabel: "|Δθ| [rad]",
		Series: []viz.Series{
			{Name: "measured", Xs: xs, Ys: ys},
			{Name: "2σ/3", Xs: xs, Ys: pred},
		},
	}
	return os.WriteFile(filepath.Join(dir, "e6_sigma.svg"), []byte(plot.SVG()), 0o644)
}

func runE7(dir string, rep *strings.Builder) error {
	res, err := experiments.KuramotoBaseline([]float64{0.2, 0.8, 1.2, 1.6, 2.0, 3.0, 4.0})
	if err != nil {
		return err
	}
	var rows [][]string
	xs := make([]float64, len(res.Transition))
	ys := make([]float64, len(res.Transition))
	for i, p := range res.Transition {
		rows = append(rows, []string{fmt.Sprintf("%g", p.K), fmt.Sprintf("%.3f", p.R)})
		xs[i], ys[i] = p.K, p.R
	}
	tbl := viz.Table([]string{"K", "r∞"}, rows)
	fmt.Print(tbl)
	fmt.Printf("K_c (mean field) = %.3f; phase slips at K=0.05: %d\n",
		res.CriticalCoupling, res.WeakCouplingSlips)
	fmt.Printf("wave arrival spread: all-to-all %.3f periods vs ±1 ring %.3f periods\n",
		res.AllToAllArrivalSpread, res.NeighborArrivalSpread)
	fmt.Fprintf(rep, "## E7 — Kuramoto baseline\n\n```\n%s```\n\nK_c=%.3f slips=%d allToAllSpread=%.3f ringSpread=%.3f\n\n",
		tbl, res.CriticalCoupling, res.WeakCouplingSlips,
		res.AllToAllArrivalSpread, res.NeighborArrivalSpread)

	plot := viz.LinePlot{
		Title:  "Kuramoto synchronization transition (N=150, σω=1)",
		XLabel: "coupling K", YLabel: "asymptotic order parameter r",
		Series: []viz.Series{{Name: "r∞(K)", Xs: xs, Ys: ys}},
	}
	return os.WriteFile(filepath.Join(dir, "e7_kuramoto.svg"), []byte(plot.SVG()), 0o644)
}

func runE8(dir string, rep *strings.Builder) error {
	res, err := experiments.NoiseDecay([]float64{0, 0.1, 0.3, 0.6})
	if err != nil {
		return err
	}
	fmtLen := func(l float64) string {
		if l > 1e6 {
			return "∞ (undamped)"
		}
		return fmt.Sprintf("%.1f", l)
	}
	var rows [][]string
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.NoiseAmp),
			fmtLen(p.MPIDecayLen),
			fmt.Sprintf("%.2f", p.MPIAmpAt1),
			fmt.Sprintf("%.2f", p.MPIAmpAt10),
			fmtLen(p.ModelDecayLen),
		})
	}
	tbl := viz.Table(
		[]string{"noise amp", "MPI decay λ [ranks]", "MPI amp@1", "MPI amp@10", "model decay λ"},
		rows)
	fmt.Print(tbl)
	fmt.Fprintf(rep, "## E8 — idle-wave decay under noise (§6 open question)\n\n```\n%s```\n\n", tbl)
	return nil
}

func runE9(dir string, rep *strings.Builder) error {
	res, err := experiments.CollectiveBarrier()
	if err != nil {
		return err
	}
	tbl := viz.Table(
		[]string{"program", "arrival spread [iters]", "ranks reached"},
		[][]string{
			{"±1 point-to-point", fmt.Sprintf("%.1f", res.P2PArrivalSpreadIters),
				fmt.Sprintf("%d", res.P2PReached)},
			{"per-iteration Allreduce", fmt.Sprintf("%.2f", res.CollectiveArrivalSpreadIters),
				fmt.Sprintf("%d", res.CollectiveReached)},
		})
	fmt.Print(tbl)
	fmt.Fprintf(rep, "## E9 — collectives as synchronizing barriers (§2.2.2, trace side)\n\n```\n%s```\n\n", tbl)
	return nil
}
