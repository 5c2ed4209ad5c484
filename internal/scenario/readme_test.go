package scenario

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestReadmeSchemaInSync keeps the README's manifest-schema table honest:
// every top-level json field of Manifest must appear (backticked) in the
// table's first column, and every field named there must exist. Each
// block's row (topology, network, …, quick) must also name, backticked,
// every json field of that block's struct and of the structs its fields
// hold (live.latency.*, live.churn[].*, failures.events[].*).
func TestReadmeSchemaInSync(t *testing.T) {
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

	backticked := regexp.MustCompile("`([^`]+)`")
	documented := map[string]bool{}
	rows := map[string]map[string]bool{} // field -> every backticked name in its row
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		named := map[string]bool{}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
			rows[m[1]] = named
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no backticked fields in the schema table")
	}

	tags := map[string]bool{}
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
		// live.churn[], failures.events[], …).
		block := f.Type.Elem()
		for j := 0; j < block.NumField(); j++ {
			sub := jsonName(block.Field(j))
			if sub == "" {
				continue
			}
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
				if leaf := jsonName(nested.Field(k)); leaf != "" && !rows[name][leaf] {
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
}

// jsonName is a struct field's json key, or "" for an untagged or skipped
// field.
func jsonName(f reflect.StructField) string {
	if name := strings.Split(f.Tag.Get("json"), ",")[0]; name != "-" {
		return name
	}
	return ""
}
