package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netmax/internal/codec"
)

// TestWireDocsInSync is the docs drift gate: the kind and codec-id tables
// in docs/WIRE.md are normative, so they must match the constants in
// wire.go and the registrations in internal/codec exactly — same names,
// same values, nothing missing, nothing extra — and the fixed body sizes
// the kind table states must match the encoders. CI's docs job runs this
// test explicitly; renumbering a kind or adding a codec without updating
// the spec fails the build.
func TestWireDocsInSync(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "WIRE.md"))
	if err != nil {
		t.Fatalf("reading docs/WIRE.md: %v", err)
	}
	doc := string(raw)

	// The authoritative kind table, from wire.go.
	wantKinds := map[string]uint8{
		"pull":        msgPull,
		"pullResp":    msgPullResp,
		"collect":     msgCollect,
		"collectResp": msgCollectResp,
		"push":        msgPush,
		"pushAck":     msgPushAck,
	}
	// The kind numbers of the retired report, reportAck, policy and
	// policyResp frames are never reused.
	for name, val := range wantKinds {
		if val >= 3 && val <= 6 {
			t.Errorf("wire.go reuses retired kind number %d for %q", val, name)
		}
	}
	if !strings.Contains(doc, "Kinds 3 to 6 are retired") {
		t.Error("docs/WIRE.md does not state that kinds 3 to 6 are retired")
	}
	// Documented rows look like: | `pull` | 1 | worker → worker | ... |
	kindRow := regexp.MustCompile("(?m)^\\| `(\\w+)` \\| (\\d+) \\|")
	gotKinds := map[string]uint8{}
	for _, m := range kindRow.FindAllStringSubmatch(doc, -1) {
		v, err := strconv.ParseUint(m[2], 10, 8)
		if err != nil {
			t.Fatalf("kind row %q: %v", m[0], err)
		}
		if _, dup := gotKinds[m[1]]; dup {
			t.Errorf("docs/WIRE.md documents kind %q twice", m[1])
		}
		gotKinds[m[1]] = uint8(v)
	}
	for name, val := range wantKinds {
		got, ok := gotKinds[name]
		if !ok {
			t.Errorf("docs/WIRE.md is missing message kind %q (= %d)", name, val)
			continue
		}
		if got != val {
			t.Errorf("docs/WIRE.md documents kind %q as %d, wire.go says %d", name, got, val)
		}
		delete(gotKinds, name)
	}
	for name, val := range gotKinds {
		t.Errorf("docs/WIRE.md documents unknown message kind %q (= %d)", name, val)
	}

	// Fixed-size bodies state their size in the kind row's body cell, and
	// it must be what the encoder writes.
	wantSizes := map[string]int{
		"pull":    len(appendPullReq(nil, 0)),
		"collect": 0,
		"pushAck": 0,
	}
	sizeRow := regexp.MustCompile("(?m)^\\| `(\\w+)` \\|[^|\n]*\\|[^|\n]*\\|[^\n]*\\((\\d+) bytes\\) \\|$")
	gotSizes := map[string]int{}
	for _, m := range sizeRow.FindAllStringSubmatch(doc, -1) {
		gotSizes[m[1]], _ = strconv.Atoi(m[2])
	}
	for name, want := range wantSizes {
		got, ok := gotSizes[name]
		if !ok {
			t.Errorf("docs/WIRE.md does not state the %q body size (%d bytes)", name, want)
		} else if got != want {
			t.Errorf("docs/WIRE.md documents a %d-byte %q body, the encoder writes %d", got, name, want)
		}
	}

	// The codec-id table must cover the registry exactly: every id that
	// resolves, under the name its codec reports, and no id beyond the
	// first unregistered one.
	codecRow := regexp.MustCompile("(?m)^\\| (\\d+) \\| `([\\w-]+)` \\|")
	gotCodecs := map[uint8]string{}
	for _, m := range codecRow.FindAllStringSubmatch(doc, -1) {
		v, err := strconv.ParseUint(m[1], 10, 8)
		if err != nil {
			t.Fatalf("codec row %q: %v", m[0], err)
		}
		if _, dup := gotCodecs[uint8(v)]; dup {
			t.Errorf("docs/WIRE.md documents codec id %d twice", v)
		}
		gotCodecs[uint8(v)] = m[2]
	}
	for id := 0; id < 256; id++ {
		c, err := codec.ByID(uint8(id))
		if err != nil {
			// First unregistered id ends the stable range; the doc must
			// not document ids beyond it.
			break
		}
		name, ok := gotCodecs[uint8(id)]
		if !ok {
			t.Errorf("docs/WIRE.md is missing codec id %d (%s)", id, c.Name())
			continue
		}
		if name != c.Name() {
			t.Errorf("docs/WIRE.md names codec id %d %q, the registry says %q", id, name, c.Name())
		}
		if c.ID() != uint8(id) {
			t.Errorf("codec.ByID(%d) returned a codec reporting ID %d", id, c.ID())
		}
		delete(gotCodecs, uint8(id))
	}
	for id, name := range gotCodecs {
		t.Errorf("docs/WIRE.md documents codec id %d (%q) that the registry does not know", id, name)
	}

	// Every registered codec's name must appear in the doc's table
	// (codec.Names is what the manifest schema accepts).
	for _, name := range codec.Names() {
		if !regexp.MustCompile("`" + regexp.QuoteMeta(name) + "`").MatchString(doc) {
			t.Errorf("docs/WIRE.md never mentions registered codec %q", name)
		}
	}

	// The documented frame-body cap must match the constant.
	if want := fmt.Sprintf("%d GiB", maxFrameBody>>30); !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(doc) {
		t.Errorf("docs/WIRE.md does not state the %s frame-body cap (maxFrameBody)", want)
	}
}
