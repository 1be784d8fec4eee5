// Archivesweep: a resumable, disk-backed parameter sweep — the
// archival counterpart of examples/megasweep. Where megasweep reduces
// every point to an O(N) summary and discards the trajectory, this
// sweep persists each point's full output (parameter vector, every
// sample row, and the summary metrics) into a sharded archive, the way
// the paper's workflow keeps ITAC trace files next to the results for
// post-hoc analysis.
//
// The demo exercises the whole crash story end to end:
//
//  1. write    — an archive sweep is interrupted mid-run (simulating a
//     crash or a preempted batch job),
//  2. resume   — a second sweep.RunArchive over the same directory
//     skips every archived point and runs only the missing ones,
//  3. read back — the resumed archive is compared record-for-record,
//     byte-for-byte, against an uninterrupted reference sweep.
//
// Because records depend only on the point index and parameters — not
// on worker count, shard layout, or interruption history — the two
// archives are bitwise identical, which is what makes archives safe to
// resume on different machines or worker counts.
//
//	go run ./examples/archivesweep
//	go run ./examples/archivesweep -points 128 -workers 8
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	var (
		points    = flag.Int("points", 48, "number of sweep points")
		n         = flag.Int("n", 8, "oscillators per point")
		workers   = flag.Int("workers", 4, "worker goroutines")
		tEnd      = flag.Float64("t", 20, "integration end time per point")
		samples   = flag.Int("samples", 101, "archived sample rows per point")
		interrupt = flag.Int("interrupt", 12, "simulate a crash after this many archived points")
		dir       = flag.String("dir", "", "archive directory (empty = temp dir, removed afterwards)")
	)
	flag.Parse()

	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "archivesweep-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	mainDir := filepath.Join(root, "sweep")
	refDir := filepath.Join(root, "reference")

	// Each point integrates a desynchronizing POM model at one σ of the
	// interaction-horizon grid; the record keeps the full trajectory plus
	// the standard summary vector.
	gen := func(i int) []float64 {
		return []float64{0.6 + 1.8*float64(i)/float64(*points)}
	}
	point := func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		tp, err := topology.NextNeighbor(*n, false)
		if err != nil {
			return err
		}
		m, err := core.New(core.Config{
			N: *n, TComp: 0.8, TComm: 0.2,
			Potential:   potential.NewDesync(params[0]),
			Topology:    tp,
			Init:        core.RandomPhases,
			PerturbSeed: uint64(i + 1),
			PerturbAmp:  0.02,
		})
		if err != nil {
			return err
		}
		// RunSummaryTo tees the record writer into the accumulator pass,
		// so the rows land on disk while the summary forms — nothing is
		// materialized in memory.
		sum, err := sim.RunSummaryTo(m, *tEnd, *samples, 0.1, 0.15, rec)
		if err != nil {
			return err
		}
		return rec.Finish(sum.Vector(), nil)
	}

	// --- 1. write, interrupted -------------------------------------------
	ctx, cancel := context.WithCancel(context.Background())
	var archived atomic.Int64
	countingPoint := func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		if err := point(ctx, i, params, rec); err != nil {
			return err
		}
		if int(archived.Add(1)) == *interrupt {
			cancel() // the "crash"
		}
		return nil
	}
	_, err := sweep.RunArchive(ctx, mainDir, *points, *workers, gen, countingPoint)
	cancel()
	if err == nil {
		log.Fatal("the interrupted sweep unexpectedly ran to completion; raise -points or lower -interrupt")
	}
	if !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
	a, err := archive.OpenDir(mainDir)
	if err != nil {
		log.Fatal(err)
	}
	already := a.Len()
	_ = a.Close() // read-only close; the count is already in hand
	fmt.Printf("interrupted: %d of %d points archived before the crash\n", already, *points)

	// --- 2. resume -------------------------------------------------------
	stats, err := sweep.RunArchive(context.Background(), mainDir, *points, *workers, gen, point)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed:     %d points skipped (already on disk), %d archived in %d new shards\n",
		stats.Skipped, stats.Archived, stats.Shards)

	// --- 3. read back and compare with an uninterrupted run --------------
	if _, err := sweep.RunArchive(context.Background(), refDir, *points, *workers, gen, point); err != nil {
		log.Fatal(err)
	}
	got, err := archive.OpenDir(mainDir)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = got.Close() }() // read-only close
	want, err := archive.OpenDir(refDir)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = want.Close() }() // read-only close
	if got.Len() != *points || want.Len() != *points {
		log.Fatalf("archives hold %d / %d points, want %d", got.Len(), want.Len(), *points)
	}
	for i := 0; i < *points; i++ {
		pg, err1 := got.ReadRaw(uint64(i))
		pw, err2 := want.ReadRaw(uint64(i))
		if err1 != nil || err2 != nil {
			log.Fatal(err1, err2)
		}
		if !bytes.Equal(pg, pw) {
			log.Fatalf("record %d differs between resumed and uninterrupted archives", i)
		}
	}
	fmt.Printf("read back:   %d records, resumed archive bitwise-identical to the uninterrupted run\n", *points)

	// A taste of post-hoc analysis straight off the disk.
	var bytesTotal int64
	for _, s := range got.Shards() {
		bytesTotal += s.Size()
	}
	rec, err := got.Read(uint64(*points / 2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive:     %d shards, %d bytes (%.0f B/point)\n",
		len(got.Shards()), bytesTotal, float64(bytesTotal)/float64(*points))
	fmt.Printf("sample read: point %d (σ=%.3f) has %d rows × %d ranks, mean |gap| %.4f (2σ/3 = %.4f)\n",
		rec.Index, rec.Params[0], rec.NSamples(), rec.Width,
		rec.Metrics[7], 2*rec.Params[0]/3)
}
