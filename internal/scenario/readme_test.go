package scenario

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// kindProbes lists, for each block whose README row enumerates kind values,
// manifests that set one of the block's kinds to a value no validator
// accepts, so the validation error spells out the accepted list.
var kindProbes = []struct {
	block  string
	probes []string
}{
	{"topology", []string{`{"name": "x", "topology": {"kind": "?"}}`}},
	{"network", []string{`{"name": "x", "network": {"kind": "?"}}`}},
	{"partition", []string{`{"name": "x", "partition": {"kind": "?"}}`, `{"name": "x", "partition": {"preset": "?"}}`}},
	{"compute", []string{`{"name": "x", "compute": {"kind": "?"}}`}},
	{"failures", []string{`{"name": "x", "failures": {"events": [{"kind": "?"}]}}`}},
}

// TestReadmeSchemaInSync keeps the README's manifest-schema table honest:
// every top-level json field of Manifest must appear (backticked) in the
// table's first column, and every field named there must exist. Each
// block's row (topology, network, …, quick) must also name, backticked,
// every json field of that block's struct and of the structs its fields
// hold (live.latency.*, failures.events[].*). The rows of
// the blocks in kindProbes must name every kind (and preset) the validator
// accepts, and name nothing else but the block's own fields. The codec row
// must name exactly the algorithms that take a codec, in table order.
func TestReadmeSchemaInSync(t *testing.T) {
	documented := map[string]bool{}
	rows := map[string]map[string]bool{} // field -> every backticked name in its row
	lines := map[string]string{}         // field -> its row
	for _, line := range schemaRows(t) {
		cells := strings.Split(line, "|")
		named := map[string]bool{}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
			rows[m[1]] = named
			lines[m[1]] = line
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no backticked fields in the schema table")
	}

	tags := map[string]bool{}
	fields := map[string]map[string]bool{} // block -> its fields and its nested structs' fields
	typ := reflect.TypeOf(Manifest{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := jsonName(f)
		if name == "" {
			continue
		}
		tags[name] = true
		if f.Type.Kind() != reflect.Pointer || f.Type.Elem().Kind() != reflect.Struct {
			continue
		}
		// A block: its row must name each of the block's own fields, and
		// each field of a struct nested one level deeper (live.latency,
		// failures.events[], …).
		block := f.Type.Elem()
		fields[name] = map[string]bool{}
		for j := 0; j < block.NumField(); j++ {
			sub := jsonName(block.Field(j))
			if sub == "" {
				continue
			}
			fields[name][sub] = true
			if !rows[name][sub] {
				t.Errorf("README schema row %q does not name its field %s.%s", name, name, sub)
			}
			nested := block.Field(j).Type
			for nested.Kind() == reflect.Pointer || nested.Kind() == reflect.Slice {
				nested = nested.Elem()
			}
			if nested.Kind() != reflect.Struct {
				continue
			}
			for k := 0; k < nested.NumField(); k++ {
				leaf := jsonName(nested.Field(k))
				if leaf == "" {
					continue
				}
				fields[name][leaf] = true
				if !rows[name][leaf] {
					t.Errorf("README schema row %q does not name its field %s.%s.%s", name, name, sub, leaf)
				}
			}
		}
	}

	var missing, unknown []string
	for tag := range tags {
		if !documented[tag] {
			missing = append(missing, tag)
		}
	}
	for field := range documented {
		if !tags[field] {
			unknown = append(unknown, field)
		}
	}
	sort.Strings(missing)
	sort.Strings(unknown)
	if len(missing) > 0 {
		t.Errorf("Manifest fields missing from the README schema table: %v", missing)
	}
	if len(unknown) > 0 {
		t.Errorf("README schema table names fields Manifest does not have: %v", unknown)
	}

	var codecKinds []string
	for _, m := range backticked.FindAllStringSubmatch(lines["codec"], -1) {
		if _, ok := lookupAlgorithm(m[1]); ok {
			codecKinds = append(codecKinds, m[1])
		}
	}
	if got, want := strings.Join(codecKinds, ", "), algorithmsWhere(func(a algorithm) bool { return a.codecFailures }); got != want {
		t.Errorf("README schema row \"codec\" names the algorithms %q, want those that take a codec: %q", got, want)
	}

	for _, kp := range kindProbes {
		kinds := map[string]bool{}
		for _, raw := range kp.probes {
			for _, k := range acceptedValues(t, raw) {
				kinds[k] = true
				if !rows[kp.block][k] {
					t.Errorf("README schema row %q does not name the accepted value %q", kp.block, k)
				}
			}
		}
		for named := range rows[kp.block] {
			if named != kp.block && !fields[kp.block][named] && !kinds[named] {
				t.Errorf("README schema row %q names %q, which is neither a field of the block nor a value the validator accepts", kp.block, named)
			}
		}
	}
}

// backticked matches a backticked name in the schema table.
var backticked = regexp.MustCompile("`([^`]+)`")

// schemaRows returns the rows of README's manifest-schema table.
func schemaRows(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "## The manifest schema")
	if start < 0 {
		t.Fatal("README has no manifest schema section")
	}
	section := text[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if len(strings.Split(line, "|")) >= 3 && strings.HasPrefix(strings.TrimSpace(line), "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestReadmeSchemaDefaults checks the schema table's defaults column: each
// row that names a literal default must show what Resolved writes into a
// manifest that leaves the field unset. A row that names several fields
// lists their defaults in order, and the workers row gives one per
// runtime.
func TestReadmeSchemaDefaults(t *testing.T) {
	defaults := map[string]string{} // first field of a row -> its defaults cell
	for _, line := range schemaRows(t) {
		cells := strings.Split(line, "|")
		if m := backticked.FindStringSubmatch(cells[1]); m != nil {
			defaults[m[1]] = strings.TrimSpace(strings.ReplaceAll(cells[2], "`", ""))
		}
	}
	engine := (&Manifest{Name: "x"}).Resolved()
	live := (&Manifest{Name: "x", Runtime: "live"}).Resolved()
	hop := (&Manifest{Name: "x", Algorithm: "hop"}).Resolved()
	want := map[string]string{
		"runtime":       engine.Runtime,
		"algorithm":     engine.Algorithm,
		"hop_staleness": fmt.Sprint(hop.HopStaleness),
		"model":         engine.Model,
		"dataset":       engine.Dataset,
		"seed":          fmt.Sprint(engine.Seed),
		"workers":       fmt.Sprintf("%d (engine) / %d (live)", engine.Workers, live.Workers),
		"epochs": fmt.Sprintf("%d, %d, %g, %d, %t, %d",
			engine.Epochs, engine.Batch, engine.LR, engine.LRDecayEpoch, *engine.Overlap, engine.Parallelism),
		"topology":  engine.Topology.Kind,
		"network":   engine.Network.Kind,
		"partition": engine.Partition.Kind,
	}
	for field, w := range want {
		got, ok := defaults[field]
		if !ok {
			t.Errorf("README schema table has no row for %s", field)
			continue
		}
		if got != w {
			t.Errorf("README schema row %q gives the default %q, Resolved writes %q", field, got, w)
		}
	}
}

// acceptedValues parses a manifest that sets one kind to an unknown value
// and returns the values the validator's "unknown … (want …)" error lists.
func acceptedValues(t *testing.T, raw string) []string {
	t.Helper()
	_, err := Parse([]byte(raw))
	if err == nil {
		t.Fatalf("probe %s was accepted", raw)
	}
	m := regexp.MustCompile(`unknown [^;]*"\?" \(want ([^)]*)\)`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("probe %s: error %q lists no accepted values", raw, err)
	}
	return strings.FieldsFunc(strings.ReplaceAll(m[1], " or ", ", "), func(r rune) bool { return r == ',' || r == ' ' })
}

// jsonName is a struct field's json key, or "" for an untagged or skipped
// field.
func jsonName(f reflect.StructField) string {
	if name := strings.Split(f.Tag.Get("json"), ",")[0]; name != "-" {
		return name
	}
	return ""
}
