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
// table's first column, and every field named there must exist.
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
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no backticked fields in the schema table")
	}

	tags := map[string]bool{}
	typ := reflect.TypeOf(Manifest{})
	for i := 0; i < typ.NumField(); i++ {
		if name := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]; name != "" && name != "-" {
			tags[name] = true
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
