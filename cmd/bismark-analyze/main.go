// bismark-analyze loads data sets written by bismark-sim (or a live
// bismark-server) and regenerates the paper's tables and figures.
//
// Usage:
//
//	bismark-analyze -data ./data                 # every exhibit
//	bismark-analyze -data ./data -only "Figure 3"
package main

import (
	"flag"
	"fmt"
	"os"

	"natpeek"
	"natpeek/internal/telemetry"
)

func main() {
	data := flag.String("data", "data", "directory of CSV data sets")
	segments := flag.String("segments", "", "analyze a columnar segment directory (bismark-server -segments, by default <out>/segments) instead of CSV data sets; fails while a running server holds it")
	only := flag.String("only", "", `regenerate a single exhibit, e.g. "Figure 19"`)
	flag.Parse()

	log := telemetry.SetupLogger("bismark-analyze")

	var (
		study *natpeek.Study
		err   error
	)
	if *segments != "" {
		study, err = natpeek.OpenSegmentStudy(*segments)
		if err != nil {
			log.Error("open failed", "segments", *segments, "err", err)
			os.Exit(1)
		}
	} else if study, err = natpeek.OpenStudy(*data); err != nil {
		log.Error("open failed", "dir", *data, "err", err)
		os.Exit(1)
	}
	if *only != "" {
		r, err := study.Report(*only)
		if err != nil {
			log.Error("report failed", "id", *only, "err", err)
			os.Exit(1)
		}
		fmt.Print(r.String())
		return
	}
	if err := study.WriteReports(os.Stdout); err != nil {
		log.Error("reports failed", "err", err)
		os.Exit(1)
	}
}
