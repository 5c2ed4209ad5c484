package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"netmax/internal/stats"
)

// Suite is a declarative description of N related runs: a paper comparison
// (NetMax vs. baseline arms), a codec sweep, or a multi-seed replication —
// one JSON file instead of N separate manifests and a hand-built table.
//
// A suite names its members one of two ways:
//
//   - an explicit run list ("runs"): member manifests inline or by path
//     relative to the suite file;
//   - a base manifest plus an expansion grid ("base" + "grid"): the grid's
//     algorithm arms, codec arms and replicate block are expanded into the
//     cross product of member runs. Replication seeds come from
//     stats.ReplicaSeed, the derivation the stats-speedup experiment uses.
//
// Resolve turns either form into the explicit run list with every member
// fully resolved; like Manifest.Resolved, the result is a marshal/parse
// fixed point, so the resolved-suite.json a run emits reproduces the whole
// suite — per-run numbers and the joint table — bitwise.
type Suite struct {
	// Name identifies the suite; it becomes the output directory name, so
	// it must be non-empty and contain no path separators.
	Name string `json:"name"`
	// Description is free-form documentation shown by `netmax-scenario list`.
	Description string `json:"description,omitempty"`
	// Runs lists the member scenarios explicitly. Mutually exclusive with
	// Base/Grid.
	Runs []SuiteMember `json:"runs,omitempty"`
	// Base is the manifest the Grid expands (inline or by path). Requires
	// Grid.
	Base *SuiteMember `json:"base,omitempty"`
	// Grid is the expansion over the base: algorithm arms x codec arms x
	// replication seeds. Requires Base.
	Grid *GridSpec `json:"grid,omitempty"`
	// Output tunes the joint table.
	Output *SuiteOutputSpec `json:"output,omitempty"`

	// dir anchors relative member paths (set by LoadSuite; empty for
	// ParseSuite, which resolves paths against the working directory).
	dir string
}

// SuiteMember names one member scenario: exactly one of Path (a manifest
// file relative to the suite file) and Manifest (inline) must be set.
type SuiteMember struct {
	// Path locates a member manifest file, relative to the suite file.
	Path string `json:"path,omitempty"`
	// Manifest is the inline member manifest.
	Manifest *Manifest `json:"manifest,omitempty"`
	// Arm is the joint-table grouping key; members sharing an arm are
	// summarized together (mean +/- stddev). Empty defaults to the member
	// manifest's name — one arm per member.
	Arm string `json:"arm,omitempty"`
}

// GridSpec expands a base manifest into member runs. Every listed dimension
// multiplies: len(algorithms) x len(codecs) x replicate.n runs. Dimensions
// left empty keep the base's value.
type GridSpec struct {
	// Algorithms lists the algorithm arms. Base blocks an arm cannot carry
	// are dropped during expansion: the netmax block for monitor-free
	// algorithms, hop_staleness for non-hop ones.
	Algorithms []string `json:"algorithms,omitempty"`
	// Codecs lists the codec arms; an entry with name "" means "no codec"
	// (the uncompressed bandwidth model).
	Codecs []CodecSpec `json:"codecs,omitempty"`
	// Replicate expands each arm into n seeds via stats.ReplicaSeed.
	Replicate *ReplicateSpec `json:"replicate,omitempty"`
}

// ReplicateSpec is the multi-seed replication block, wired to
// internal/stats: seed i is stats.ReplicaSeed(seed, i), where seed is the
// base manifest's (resolved) seed.
type ReplicateSpec struct {
	// N is the replica count per arm.
	N int `json:"n"`
}

// SuiteOutputSpec tunes the suite's joint table.
type SuiteOutputSpec struct {
	// TargetLoss, when positive, adds a time-to-loss column: the virtual
	// time at which each run's loss curve first reaches the target
	// (engine-runtime members only).
	TargetLoss float64 `json:"target_loss,omitempty"`
}

// isSuite reports whether raw looks like a suite document rather than a
// single-run manifest: suites carry a top-level "runs", "base" or "grid"
// key, which no Manifest has.
func isSuite(raw []byte) bool {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return false
	}
	for _, k := range []string{"runs", "base", "grid"} {
		if _, ok := top[k]; ok {
			return true
		}
	}
	return false
}

// ParseSuite decodes a suite from JSON, rejecting unknown fields, and
// validates it (expanding the grid and loading path members to check every
// resulting run). Relative member paths resolve against the working
// directory; use LoadSuite for file-anchored paths.
func ParseSuite(raw []byte) (*Suite, error) {
	s, err := decodeStrict[Suite](raw, "suite")
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSuite reads, parses and validates a suite file; member paths resolve
// relative to the suite file's directory.
func LoadSuite(path string) (*Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := decodeStrict[Suite](raw, "suite")
	if err == nil {
		s.dir = filepath.Dir(path) // validation needs dir set first
		err = s.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// LoadAny loads either a single-run manifest or a suite, detected by
// content (suites carry "runs"/"base"/"grid"), in the resolved form its
// validation produced: a manifest's Resolved, or a suite's Resolve, whose
// members keep their quick blocks, so Resolve of it reads no file.
// Exactly one of the returns is non-nil on success.
func LoadAny(path string) (*Manifest, *Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	var m *Manifest
	var s *Suite
	if isSuite(raw) {
		if s, err = decodeStrict[Suite](raw, "suite"); err == nil {
			s.dir = filepath.Dir(path)
			s, err = s.Resolve()
		}
	} else if m, err = decodeStrict[Manifest](raw, "manifest"); err == nil {
		m, _, err = m.resolveForms()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, s, nil
}

// Validate checks the suite as Resolve does: its shape, then one expansion
// that resolves every member in its full and its quick form, so a suite is
// valid exactly when every run it describes, at either scale, is runnable
// and uniquely named — the same rigor single manifests get.
func (s *Suite) Validate() error {
	_, err := s.Resolve()
	return err
}

// validateShape performs the suite-level structural checks (Resolve runs
// them too, so a programmatically built suite cannot skip them by going
// straight to RunSuite).
func (s *Suite) validateShape() error {
	e := &errorList{name: s.Name}
	if s.Name == "" {
		e.addf("name must be non-empty")
	}
	if strings.ContainsAny(s.Name, "/\\") {
		e.addf("name must not contain path separators")
	}
	switch {
	case len(s.Runs) > 0 && (s.Base != nil || s.Grid != nil):
		e.addf("runs and base/grid are mutually exclusive")
	case len(s.Runs) == 0 && s.Base == nil && s.Grid == nil:
		e.addf("a suite needs members: set runs, or base plus grid")
	case s.Base != nil && s.Grid == nil:
		e.addf("base without grid: a single-run suite is just a manifest; set grid")
	case s.Grid != nil && s.Base == nil:
		e.addf("grid requires a base manifest to expand")
	}
	if g := s.Grid; g != nil {
		if len(g.Algorithms) == 0 && len(g.Codecs) == 0 && g.Replicate == nil {
			e.addf("grid expands nothing: set algorithms, codecs or replicate")
		}
		for i, a := range g.Algorithms {
			if _, ok := lookupAlgorithm(a); !ok {
				e.addf("grid algorithm %d: unknown algorithm %q (want one of %s)", i, a, algorithmsWhere(anyAlgorithm))
			}
		}
		runs := max(len(g.Algorithms), 1) * max(len(g.Codecs), 1)
		if r := g.Replicate; r != nil {
			if r.N < 1 {
				e.addf("grid.replicate.n must be >= 1, got %d", r.N)
			}
			runs *= min(max(r.N, 1), maxSuiteRuns+1)
		}
		if runs > maxSuiteRuns {
			e.addf("grid expands to more than %d runs", maxSuiteRuns)
		}
	}
	if o := s.Output; o != nil && o.TargetLoss < 0 {
		e.addf("output.target_loss must be >= 0, got %g", o.TargetLoss)
	}
	for i, mem := range s.Runs {
		if (mem.Path == "") == (mem.Manifest == nil) {
			e.addf("run %d: exactly one of path and manifest must be set", i)
		}
	}
	if b := s.Base; b != nil && (b.Path == "") == (b.Manifest == nil) {
		e.addf("base: exactly one of path and manifest must be set")
	}
	if b := s.Base; b != nil && b.Arm != "" {
		e.addf("base takes no arm (arms come from the grid)")
	}
	return e.err()
}

// maxSuiteRuns caps the runs one grid expands to, checked before expansion
// allocates anything: a replicate count is a single number in the file, and
// a ten-digit one would otherwise allocate gigabytes.
const maxSuiteRuns = 1000

// loadMember materializes and validates a member's manifest, inline or
// loaded relative to the suite's directory. It returns the manifest as
// authored and its resolved form, checked at both scales (resolveForms),
// so each member is read and validated once per Resolve.
func (s *Suite) loadMember(mem *SuiteMember) (m, r *Manifest, err error) {
	if mem.Manifest != nil {
		r, _, err = mem.Manifest.resolveForms()
		return mem.Manifest, r, err
	}
	path := mem.Path
	if !filepath.IsAbs(path) && s.dir != "" {
		path = filepath.Join(s.dir, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	if m, err = decodeStrict[Manifest](raw, "manifest"); err == nil {
		r, _, err = m.resolveForms()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, r, nil
}

// Resolve expands the suite into its explicit run list: the grid (if any)
// is multiplied out, path members are inlined, and every member is fully
// resolved, checked in its full and its quick form, and keeps its quick
// block as a resolved manifest does. The result is a marshal/parse fixed
// point — Resolve of a resolved suite returns it unchanged — and is what
// RunSuite executes, each member at the scale its RunOptions pick.
func (s *Suite) Resolve() (*Suite, error) {
	if err := s.validateShape(); err != nil {
		return nil, err
	}
	expand := s.explicitMembers
	if s.Grid != nil {
		expand = s.expandGrid
	}
	members, err := expand()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]int, len(members))
	for i, mem := range members {
		name := mem.Manifest.Name
		if j, dup := seen[name]; dup {
			return nil, fmt.Errorf("suite %q: runs %d and %d share the name %q (member names become output directories and must be unique)", s.Name, j, i, name)
		}
		seen[name] = i
	}
	out := &Suite{Name: s.Name, Description: s.Description, Runs: members}
	if s.Output != nil {
		cp := *s.Output
		out.Output = &cp
	}
	return out, nil
}

// explicitMembers inlines and resolves an explicit run list.
func (s *Suite) explicitMembers() ([]SuiteMember, error) {
	var members []SuiteMember
	for i, mem := range s.Runs {
		_, r, err := s.loadMember(&mem)
		if err != nil {
			return nil, fmt.Errorf("suite %q: run %d: %w", s.Name, i, err)
		}
		arm := mem.Arm
		if arm == "" {
			arm = r.Name
		}
		members = append(members, SuiteMember{Manifest: r, Arm: arm})
	}
	return members, nil
}

// expandGrid multiplies the base manifest by the grid's dimensions. Arm
// labels concatenate the varying dimensions (algorithm, then codec);
// member names append the arm and the seed to the suite name. A cell
// keeps the base's quick block: quick touches only workers, epochs and
// live iterations, which no grid dimension sets.
func (s *Suite) expandGrid() ([]SuiteMember, error) {
	base, br, err := s.loadMember(s.Base)
	if err != nil {
		return nil, fmt.Errorf("suite %q: base: %w", s.Name, err)
	}
	g := s.Grid

	algos := g.Algorithms
	if len(algos) == 0 {
		algos = []string{br.Algorithm}
	}
	// A nil entry in codecs means "keep the base's codec block".
	codecs := []*CodecSpec{nil}
	if len(g.Codecs) > 0 {
		codecs = make([]*CodecSpec, len(g.Codecs))
		for i := range g.Codecs {
			cp := g.Codecs[i]
			codecs[i] = &cp
		}
	}
	seeds := []int64{br.Seed}
	if r := g.Replicate; r != nil {
		seeds = make([]int64, r.N)
		for i := range seeds {
			seeds[i] = stats.ReplicaSeed(br.Seed, i)
		}
	}

	var members []SuiteMember
	for _, algo := range algos {
		for _, cdc := range codecs {
			arm := armLabel(g, algo, cdc)
			for _, seed := range seeds {
				m := base.clone()
				m.Algorithm = algo
				m.Seed = seed
				if cdc != nil {
					if cdc.Name == "" {
						m.Codec = nil
					} else {
						cp := *cdc
						m.Codec = &cp
					}
				}
				// Drop base blocks this arm cannot carry (rather than
				// failing validation on a block the base legitimately
				// needs for its own algorithm).
				a, _ := lookupAlgorithm(m.Algorithm)
				if !a.netmax {
					m.NetMax = nil
				}
				if !a.hopStaleness {
					m.HopStaleness = 0
				}
				m.Name = fmt.Sprintf("%s-%s-s%d", s.Name, arm, seed)
				m.Description = ""
				r, _, err := m.resolveForms()
				if err != nil {
					return nil, fmt.Errorf("suite %q: arm %q seed %d: %w", s.Name, arm, seed, err)
				}
				members = append(members, SuiteMember{Manifest: r, Arm: arm})
			}
		}
	}
	return members, nil
}

// armLabel names one grid cell from its varying dimensions: the algorithm
// when algorithms vary, plus a codec tag when codecs vary.
func armLabel(g *GridSpec, algo string, cdc *CodecSpec) string {
	var parts []string
	if len(g.Algorithms) > 0 {
		parts = append(parts, algo)
	}
	if cdc != nil {
		parts = append(parts, codecLabel(cdc))
	}
	// Replicate-only grids still need a label: the (single) algorithm.
	if len(parts) == 0 {
		parts = append(parts, algo)
	}
	return strings.Join(parts, "-")
}

// codecLabel renders a codec arm compactly: "raw", "float32", or
// "nocodec" for the drop-the-codec entry.
func codecLabel(c *CodecSpec) string {
	if c.Name == "" {
		return "nocodec"
	}
	return c.Name
}
