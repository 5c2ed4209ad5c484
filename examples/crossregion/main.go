// Cross-region WAN training (the paper's Appendix G / Fig. 19): six workers
// in six cloud regions with up-to-12x link-speed spread and region-specific
// label skew (Table VII) train MobileNet; NetMax is compared with AD-PSGD
// and both parameter-server variants.
//
//	go run ./examples/crossregion
//	go run ./examples/crossregion -quick
package main

import (
	"flag"
	"fmt"
	"log"

	"netmax"
	"netmax/internal/data"
	"netmax/internal/scenario"
	"netmax/internal/simnet"
)

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()
	epochs := 25
	if *quick {
		epochs = 3 // six regions are fixed by the WAN matrix; only time shrinks
	}
	sc := &netmax.Scenario{
		Name: "crossregion", Model: "MobileNet", Dataset: "MNIST", Workers: 6, Epochs: epochs,
		Batch: 8, LR: 0.05,
		Network:   &scenario.NetworkSpec{Kind: "cross-region"},
		Partition: &scenario.PartitionSpec{Preset: "table-7"},
	}
	train := func(algorithm string) *netmax.Result {
		sc.Algorithm = algorithm
		cfg, run, err := sc.BuildEngine()
		if err != nil {
			log.Fatal(err)
		}
		return run(cfg)
	}

	fmt.Println("Regions:", simnet.Regions)
	fmt.Println("Label skew (Table VII): lost labels per region")
	for w, lost := range data.TableVIISkew() {
		fmt.Printf("  %-10s %v\n", simnet.Regions[w], lost)
	}

	fmt.Println("\nTraining across regions...")
	type run struct {
		name string
		res  *netmax.Result
	}
	results := []run{
		{"NetMax", train("netmax")},
		{"AD-PSGD", train("adpsgd")},
		{"PS-asyn", train("ps-async")},
		{"PS-syn", train("ps-sync")},
	}
	fmt.Printf("\n%-8s  %12s  %9s\n", "approach", "total time", "accuracy")
	for _, r := range results {
		fmt.Printf("%-8s  %10.1fs  %8.2f%%\n", r.name, r.res.TotalTime, 100*r.res.FinalAccuracy)
	}
	nm := results[0].res
	fmt.Println()
	for _, r := range results[1:] {
		fmt.Printf("NetMax %.2fx faster than %s (same epochs)\n", r.res.TotalTime/nm.TotalTime, r.name)
	}
}
