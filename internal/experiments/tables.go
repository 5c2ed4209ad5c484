package experiments

import "fmt"

func init() {
	register("tab2", "Test accuracy over a heterogeneous network (Table II)", runTab2)
	register("tab3", "Test accuracy over a homogeneous network (Table III)", runTab3)
}

func accuracyTable(id, title string, nodeCounts []int, homogeneous bool, opt Options) (*Result, error) {
	epochs := scaleEpochs(30, opt)
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"model", "nodes", "Prague", "Allreduce", "AD-PSGD", "NetMax"},
	}
	for _, model := range []string{"ResNet18", "VGG19"} {
		for _, n := range nodeCounts {
			m := paperRun(id, opt)
			m.Model, m.Workers, m.Epochs, m.LRDecayEpoch = model, n, epochs, epochs*7/10
			if homogeneous {
				onSwitch(m)
			}
			rs, err := runAll(m, clusterAlgos...)
			if err != nil {
				return nil, err
			}
			row := []string{model, fmt.Sprint(n)}
			for _, r := range rs {
				row = append(row, pct(r.FinalAccuracy))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes, "paper shape: all approaches within ~1 point; NetMax ties or slightly leads")
	return res, nil
}

// runTab2 reproduces Table II: accuracy at 4/8/16 workers, heterogeneous.
func runTab2(opt Options) (*Result, error) {
	counts := []int{4, 8, 16}
	if opt.Quick {
		counts = []int{4, 8}
	}
	return accuracyTable("tab2", "Accuracy, heterogeneous network", counts, false, opt)
}

// runTab3 reproduces Table III: accuracy at 4/6/8 workers, homogeneous.
func runTab3(opt Options) (*Result, error) {
	counts := []int{4, 6, 8}
	if opt.Quick {
		counts = []int{4, 8}
	}
	return accuracyTable("tab3", "Accuracy, homogeneous network", counts, true, opt)
}
