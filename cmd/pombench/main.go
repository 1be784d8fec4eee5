// Pombench emits the repo's headline performance numbers as machine-
// readable JSON, so CI can archive them as a workflow artifact
// (BENCH_archive.json) and a fleet operator can diff runs without
// scraping `go test -bench` text:
//
//   - on-disk bytes/point for raw vs delta archive codecs at the
//     megasweep (N=8, 201 samples) and archivesweep (N=8, 101 samples)
//     shapes, plus the compression ratio,
//   - archive codec throughput (encode/decode, canonical MB/s),
//   - cluster engine throughput (events/s, eager and rendezvous).
//
// The trajectory corpus comes from real desynchronization-model runs —
// the same model family the examples sweep — so the compression numbers
// reflect what production archives actually store, not synthetic data.
//
//	go run ./cmd/pombench                     # print to stdout
//	go run ./cmd/pombench -out BENCH_archive.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// shapeResult is one archive-shape measurement.
type shapeResult struct {
	Name              string  `json:"name"`
	Points            int     `json:"points"`
	Width             int     `json:"width"`
	Samples           int     `json:"samples"`
	RawBytesPerPoint  float64 `json:"raw_bytes_per_point"`
	DeltaBytesPerPt   float64 `json:"delta_bytes_per_point"`
	CompressionRatio  float64 `json:"compression_ratio"`
	CanonicalPerPoint float64 `json:"canonical_payload_bytes_per_point"`
}

// codecResult is the codec-throughput measurement, in canonical
// (uncompressed payload) MB/s so the two codecs are comparable.
type codecResult struct {
	EncodeRawMBps   float64 `json:"encode_raw_mbps"`
	EncodeDeltaMBps float64 `json:"encode_delta_mbps"`
	DecodeRawMBps   float64 `json:"decode_raw_mbps"`
	DecodeDeltaMBps float64 `json:"decode_delta_mbps"`
}

// engineResult is the cluster-engine throughput measurement.
type engineResult struct {
	EagerEventsPerSec      float64 `json:"eager_events_per_sec"`
	RendezvousEventsPerSec float64 `json:"rendezvous_events_per_sec"`
}

type report struct {
	Shapes []shapeResult `json:"shapes"`
	Codec  codecResult   `json:"codec"`
	Engine engineResult  `json:"engine"`
}

type shapeSpec struct {
	name     string
	points   int
	n        int
	samples  int
	tEnd     float64
	withComm bool // megasweep adds coupling override + local noise
}

func main() {
	log.SetFlags(0)
	var (
		out    = flag.String("out", "", "write JSON here (empty = stdout)")
		points = flag.Int("points", 16, "sweep points per archive shape")
	)
	flag.Parse()

	shapes := []shapeSpec{
		{name: "megasweep", points: *points, n: 8, samples: 201, tEnd: 40, withComm: true},
		{name: "archivesweep", points: *points, n: 8, samples: 101, tEnd: 20},
	}

	var rep report
	var corpus []*archive.Record // megasweep-shape records, for codec timing
	for _, sh := range shapes {
		res, recs, err := measureShape(sh)
		if err != nil {
			log.Fatal(err)
		}
		rep.Shapes = append(rep.Shapes, res)
		if corpus == nil {
			corpus = recs
		}
	}

	codec, err := measureCodec(corpus)
	if err != nil {
		log.Fatal(err)
	}
	rep.Codec = codec

	eng, err := measureEngine()
	if err != nil {
		log.Fatal(err)
	}
	rep.Engine = eng

	js, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		log.Fatal(err)
	}
}

// pointFunc builds the ArchivePointFunc for one shape: a real
// desynchronization-model run streamed into the record, exactly like
// examples/megasweep and examples/archivesweep.
func pointFunc(sh shapeSpec) sweep.ArchivePointFunc {
	return func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		tp, err := topology.NextNeighbor(sh.n, false)
		if err != nil {
			return err
		}
		cfg := core.Config{
			N: sh.n, TComp: 0.8, TComm: 0.2,
			Potential:   potential.NewDesync(params[0]),
			Topology:    tp,
			Init:        core.RandomPhases,
			PerturbSeed: uint64(i + 1),
			PerturbAmp:  0.02,
		}
		if sh.withComm {
			cfg.CouplingOverride = params[1]
			cfg.LocalNoise = noise.Delay{Rank: sh.n / 3, Start: 5, Duration: 1, Extra: 20}
		}
		m, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := sim.RunStream(m, sh.tEnd, sh.samples, rec); err != nil {
			return err
		}
		return rec.Finish(nil, nil)
	}
}

func shapeGen(sh shapeSpec) func(i int) []float64 {
	return func(i int) []float64 {
		sigma := 0.6 + 1.8*float64(i)/float64(sh.points)
		if !sh.withComm {
			return []float64{sigma}
		}
		bk := 1.0 + 3.0*float64(i%4)/4.0
		return []float64{sigma, bk}
	}
}

// measureShape archives one shape under both codecs and reports the
// on-disk bytes/point. It returns the decoded records so the codec
// timing can reuse the corpus.
func measureShape(sh shapeSpec) (shapeResult, []*archive.Record, error) {
	res := shapeResult{Name: sh.name, Points: sh.points, Width: sh.n, Samples: sh.samples}
	root, err := os.MkdirTemp("", "pombench-*")
	if err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(root)

	var recs []*archive.Record
	for _, codec := range []archive.Codec{archive.CodecRaw, archive.CodecDelta} {
		dir := filepath.Join(root, sh.name+"-"+codec.String())
		run := sweep.ArchiveRun{Dir: dir, Hi: sh.points, Workers: 1, Codec: codec}
		if _, err := run.Run(context.Background(), shapeGen(sh), pointFunc(sh)); err != nil {
			return res, nil, err
		}
		onDisk, err := dirSize(dir)
		if err != nil {
			return res, nil, err
		}
		perPoint := float64(onDisk) / float64(sh.points)
		if codec == archive.CodecRaw {
			res.RawBytesPerPoint = perPoint
		} else {
			res.DeltaBytesPerPt = perPoint
		}
		if codec == archive.CodecDelta {
			a, err := archive.OpenDir(dir)
			if err != nil {
				return res, nil, err
			}
			var canon int
			err = a.Iter(func(rec *archive.Record) error {
				recs = append(recs, rec)
				return nil
			})
			if err == nil {
				for _, idx := range a.Indices() {
					b, cerr := a.ReadCanonical(idx)
					if cerr != nil {
						err = cerr
						break
					}
					canon += len(b)
				}
			}
			_ = a.Close() // read-only close
			if err != nil {
				return res, nil, err
			}
			res.CanonicalPerPoint = float64(canon) / float64(sh.points)
		}
	}
	if res.DeltaBytesPerPt > 0 {
		res.CompressionRatio = res.RawBytesPerPoint / res.DeltaBytesPerPt
	}
	return res, recs, nil
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// measureCodec times encode (Writer.Append through the streaming path)
// and decode (Archive read + payload decode) for both codecs over the
// megasweep-shape corpus. Throughput is canonical payload MB/s.
func measureCodec(corpus []*archive.Record) (codecResult, error) {
	var res codecResult
	if len(corpus) == 0 {
		return res, fmt.Errorf("pombench: empty corpus")
	}
	var canonical int64
	for _, rec := range corpus {
		canonical += int64(8 + 4 + 8*len(rec.Params) + 8 + (1+rec.Width)*8*rec.NSamples() + 4 + 8*len(rec.Metrics) + 4)
	}
	for _, codec := range []archive.Codec{archive.CodecRaw, archive.CodecDelta} {
		enc, dec, err := timeCodec(corpus, codec, canonical)
		if err != nil {
			return res, err
		}
		if codec == archive.CodecRaw {
			res.EncodeRawMBps, res.DecodeRawMBps = enc, dec
		} else {
			res.EncodeDeltaMBps, res.DecodeDeltaMBps = enc, dec
		}
	}
	return res, nil
}

func timeCodec(corpus []*archive.Record, codec archive.Codec, canonical int64) (encMBps, decMBps float64, err error) {
	root, err := os.MkdirTemp("", "pombench-codec-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(root)

	// Encode: stream the corpus into shards until ~1s has elapsed.
	var encBytes int64
	var elapsed time.Duration
	for pass := 0; elapsed < time.Second; pass++ {
		dir := filepath.Join(root, fmt.Sprintf("enc-%d", pass))
		w, err := archive.CreateWith(dir, 0, codec)
		if err != nil {
			return 0, 0, err
		}
		//pomvet:allow wallclock benchmark timing only, never simulation state
		start := time.Now()
		for i, rec := range corpus {
			// Re-index so repeated passes stay collision-free.
			clone := *rec
			clone.Index = uint64(i)
			if err := w.Append(&clone); err != nil {
				return 0, 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, 0, err
		}
		//pomvet:allow wallclock benchmark timing only
		elapsed += time.Since(start)
		encBytes += canonical
	}
	encMBps = float64(encBytes) / 1e6 / elapsed.Seconds()

	// Decode: read the last encoded archive back until ~1s has elapsed.
	dir := filepath.Join(root, "dec")
	w, err := archive.CreateWith(dir, 0, codec)
	if err != nil {
		return 0, 0, err
	}
	for i, rec := range corpus {
		clone := *rec
		clone.Index = uint64(i)
		if err := w.Append(&clone); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	a, err := archive.OpenDir(dir)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = a.Close() }() // read-only close
	var decBytes int64
	elapsed = 0
	for elapsed < time.Second {
		//pomvet:allow wallclock benchmark timing only
		start := time.Now()
		if err := a.Iter(func(*archive.Record) error { return nil }); err != nil {
			return 0, 0, err
		}
		//pomvet:allow wallclock benchmark timing only
		elapsed += time.Since(start)
		decBytes += canonical
	}
	decMBps = float64(decBytes) / 1e6 / elapsed.Seconds()
	return encMBps, decMBps, nil
}

// measureEngine reproduces BenchmarkEngineEager/-Rendezvous outside the
// testing harness: a 40-rank STREAM bulk-synchronous program on the
// Meggie machine model, repeated for ~1s per message size.
func measureEngine() (engineResult, error) {
	var res engineResult
	for _, msgBytes := range []float64{1024, 1 << 20} {
		tp, err := topology.NextNeighbor(40, false)
		if err != nil {
			return res, err
		}
		k := kernels.STREAM()
		progs, err := cluster.BulkSynchronous(tp, k.Workload(), msgBytes, 200)
		if err != nil {
			return res, err
		}
		var events int
		var elapsed time.Duration
		for elapsed < time.Second {
			engine, err := cluster.NewSim(cluster.Meggie(4), progs, cluster.Options{})
			if err != nil {
				return res, err
			}
			//pomvet:allow wallclock benchmark timing only, never simulation state
			start := time.Now()
			r, err := engine.Run()
			if err != nil {
				return res, err
			}
			//pomvet:allow wallclock benchmark timing only
			elapsed += time.Since(start)
			events += r.Events
		}
		perSec := float64(events) / elapsed.Seconds()
		if msgBytes == 1024 {
			res.EagerEventsPerSec = perSec
		} else {
			res.RendezvousEventsPerSec = perSec
		}
	}
	return res, nil
}
