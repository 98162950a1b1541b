package factorwindows

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links are not used in this repo.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsLinks is the docs CI gate: every relative link in the
// repository's markdown files must point at a file (or directory) that
// exists, and the load-bearing documents must agree on the symbols they
// name — so README/ARCHITECTURE/CHANGES cannot silently rot as the code
// moves underneath them.
func TestDocsLinks(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(mds) < 4 {
		t.Fatalf("expected the root markdown set, found only %v", mds)
	}
	for _, md := range mds {
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"):
				continue // external; not fetched in CI
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			target = strings.SplitN(target, "#", 2)[0]
			if _, err := os.Stat(filepath.Join(filepath.Dir(md), target)); err != nil {
				t.Errorf("%s: broken link %q", md, m[1])
			}
		}
	}
}

// TestDocsPathsExist verifies that every repo-relative path the core
// documents name in prose or tables (backticked `internal/...`,
// `cmd/...`, workflow and benchmark files) exists.
func TestDocsPathsExist(t *testing.T) {
	pathish := regexp.MustCompile("`((?:internal|cmd|examples)/[A-Za-z0-9_/.{},-]+|\\.github/workflows/[a-z.]+|BENCH_[a-z]+\\.json|[A-Z]+_?[A-Z]*\\.md)`")
	for _, md := range []string{"README.md", "ARCHITECTURE.md"} {
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pathish.FindAllStringSubmatch(string(body), -1) {
			for _, p := range expandBraces(m[1]) {
				if _, err := os.Stat(p); err == nil {
					continue
				}
				// `internal/agg.Store`-style package.Symbol references:
				// the package directory must exist.
				if i := strings.IndexByte(filepath.Base(p), '.'); i >= 0 {
					dir := filepath.Join(filepath.Dir(p), filepath.Base(p)[:i])
					if _, err := os.Stat(dir); err == nil {
						continue
					}
				}
				t.Errorf("%s names %q, which does not exist", md, p)
			}
		}
	}
}

// expandBraces expands one {a,b,c} group, the only brace form the docs
// use (e.g. internal/{engine,parallel,server}/testdata).
func expandBraces(p string) []string {
	open := strings.IndexByte(p, '{')
	if open < 0 {
		return []string{p}
	}
	close := strings.IndexByte(p, '}')
	if close < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:close], ",") {
		out = append(out, p[:open]+alt+p[close+1:])
	}
	return out
}

// TestDocsRoutesMatchHandler pins the README's HTTP API table to the
// actual mux registrations in internal/server/handlers.go: every route
// registered in code must be documented, and vice versa.
func TestDocsRoutesMatchHandler(t *testing.T) {
	src, err := os.ReadFile("internal/server/handlers.go")
	if err != nil {
		t.Fatal(err)
	}
	reg := regexp.MustCompile(`mux\.HandleFunc\("([A-Z]+) ([^"]+)"`)
	registered := make(map[string]bool)
	for _, m := range reg.FindAllStringSubmatch(string(src), -1) {
		registered[m[1]+" "+m[2]] = true
	}
	if len(registered) == 0 {
		t.Fatal("no routes found in handlers.go; matcher rotted")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := regexp.MustCompile("`(GET|POST|DELETE|PUT) (/[a-z{}/]*)")
	documented := make(map[string]bool)
	for _, m := range doc.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]+" "+m[2]] = true
	}
	for r := range registered {
		if !documented[r] {
			t.Errorf("route %q registered in handlers.go but missing from the README API table", r)
		}
	}
	for r := range documented {
		if !registered[r] {
			t.Errorf("route %q documented in the README but not registered in handlers.go", r)
		}
	}
}

// TestDocsOffPathPackages keeps ROADMAP's north-star line enforced: an
// internal package that no build of the server, the worker or the
// reproduction harness reaches is either wired in, deleted, or argued
// for in ARCHITECTURE.md's "Off the serving and reproduction path" note
// — in the same diff. The set `go list -deps` computes must equal the
// set that note lists.
func TestDocsOffPathPackages(t *testing.T) {
	list := func(args ...string) map[string]bool {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		pkgs := make(map[string]bool)
		for _, p := range strings.Fields(string(out)) {
			if rest, ok := strings.CutPrefix(p, "factorwindows/"); ok && strings.HasPrefix(rest, "internal/") {
				pkgs[rest] = true
			}
		}
		return pkgs
	}
	reached := list("-deps", "./cmd/fwserve", "./cmd/fwworker", "./cmd/fwbench")
	offPath := make(map[string]bool)
	for p := range list("./internal/...") {
		if !reached[p] {
			offPath[p] = true
		}
	}

	body, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, note, found := strings.Cut(string(body), "### Off the serving and reproduction path")
	if !found {
		t.Fatal("ARCHITECTURE.md lost its \"Off the serving and reproduction path\" note")
	}
	note, _, _ = strings.Cut(note, "\n#") // up to the next heading
	listed := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^- `(internal/[a-z0-9_/]+)`").FindAllStringSubmatch(note, -1) {
		listed[m[1]] = true
	}
	for p := range offPath {
		if !listed[p] {
			t.Errorf("%s is reached by none of cmd/fwserve, cmd/fwworker, cmd/fwbench and ARCHITECTURE.md's off-path note does not argue for it: wire it in, delete it, or list it there", p)
		}
	}
	for p := range listed {
		if !offPath[p] {
			t.Errorf("ARCHITECTURE.md's off-path note lists %s, but a serving or reproduction command reaches it (or it is gone)", p)
		}
	}
}
