// Log pipeline: generate the two logs to disk with bgpgen-equivalent
// code, then read them back and run the analysis exactly as an operator
// with real log files would — demonstrating the streaming readers and
// writers and the filtering cascade's per-stage funnel.
//
//	go run ./examples/logpipeline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/filter"
	"repro/internal/raslog"
	"repro/internal/simulate"
	"repro/internal/symtab"
)

func main() {
	dir, err := os.MkdirTemp("", "bgp-logs-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rasPath := filepath.Join(dir, "ras.log")
	jobPath := filepath.Join(dir, "job.log")

	// 1. Simulate a short campaign and write both logs to disk.
	camp, err := simulate.Run(simulate.Config{Seed: 7, Days: 30, NoisePerFatal: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := writeLogs(camp, rasPath, jobPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", rasPath, jobPath)

	// 2. Stream the RAS log back with the iterator reader: one reusable
	// record, no whole-file slice — only the FATAL survivors are kept.
	rf, err := os.Open(rasPath)
	if err != nil {
		log.Fatal(err)
	}
	r := raslog.NewReader(rf)
	total := 0
	var fatal []raslog.Record
	for r.Next() {
		total++
		if r.Record().Fatal() {
			fatal = append(fatal, *r.Record())
		}
	}
	rf.Close()
	if err := r.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed %d records; kept %d FATAL\n", total, len(fatal))

	// 3. Run the filtering cascade and print its Stats funnel: the
	// compression each stage buys. (repro.Load, below, collects no
	// records: raslog.ScanFatal's parallel decode shards validate every
	// line and hand only the FATAL records to a spool, whose sorted run
	// feeds the same cascade.)
	evs, st := filter.Pipeline(filter.DefaultConfig(), symtab.NewTable(), fatal)
	fmt.Printf("temporal:  %6d -> %5d (same location+code storms collapsed)\n", st.Input, st.AfterTemporal)
	fmt.Printf("spatial:   %6d -> %5d (parallel-job fan-out collapsed)\n", st.AfterTemporal, st.AfterSpatial)
	fmt.Printf("causality: %6d -> %5d (mined leader->follower symptoms dropped)\n", st.AfterSpatial, st.AfterCausality)
	fmt.Printf("%d independent events, %.2f%% of the FATAL records removed\n", len(evs), 100*st.CompressionRatio())

	// 4. Feed both files to the public API, as cmd/coanalyze does; Load
	// decodes them with the sharded streaming codec.
	rf, err = os.Open(rasPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	jf, err := os.Open(jobPath)
	if err != nil {
		log.Fatal(err)
	}
	defer jf.Close()
	rep, err := repro.Load(repro.DefaultConfig(0), rf, jf)
	if err != nil {
		log.Fatal(err)
	}
	sum := rep.Summary()
	fmt.Printf("\nco-analysis over the files: %d events, %d interruptions, job-filter removed %d\n",
		sum.EventsAfterFiltering, sum.Interruptions, sum.JobRedundantRemoved)
}

func writeLogs(camp *simulate.Campaign, rasPath, jobPath string) error {
	rf, err := os.Create(rasPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	jf, err := os.Create(jobPath)
	if err != nil {
		return err
	}
	defer jf.Close()
	if err := camp.WriteLogs(rf, jf); err != nil {
		return err
	}
	if err := rf.Close(); err != nil {
		return err
	}
	return jf.Close()
}
