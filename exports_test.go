package natpeek

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that no non-test code in the repository references by name,
// each with the reason it stays. Keys are "pkg.Func" or
// "pkg.Type.Method", pkg being the directory under internal/.
var exportAllowlist = map[string]string{
	// Test seams.
	"cluster.Node.Kill":                "test seam: crashes a node without a clean shutdown",
	"collector.Server.SetMaxInflight":  "test seam: the admission tests saturate a collector at a limit of 1 or 2",
	"spool.NewFaultTransport":          "test seam: an http.RoundTripper that fails requests on demand",
	"spool.FaultTransport.SetFailRate": "test seam: fraction of sends that fail",
	"spool.FaultTransport.SetBlackout": "test seam: fail every send until lifted",
	"spool.FaultTransport.Injected":    "test seam: how many failures were injected",
	"trace.SetEnabled":                 "test seam: switches tracing off and back for the tests and benchmarks that compare both",
	// Reference implementations a test compares against.
	"domains.Rank":     "reference: the figures oracle ranks domains with it",
	"heartbeat.GapsIn": "reference: the heartbeat and household tests check gap extraction against it",
	"stats.Gini":       "reference: figures.TestMeanGiniDeterministic checks meanGini against it",
	"stats.Summarize":  "reference: the analysis oracle summarizes samples with it",
	// Test-harness entry points.
	"verify.BuildSnapshot":       "harness: the verify goldens snapshot a store with it",
	"verify.RunCluster":          "harness: the cluster and segment goldens run a deployment through it",
	"verify.RunClusterRebalance": "harness: the join and drain goldens run through it",
	// Accessors through which a test observes production behaviour.
	"analysis.Rollup.KeptRows":     "accessor: the kept rows a rollup view was folded from, per kind",
	"linksim.Direction.QueueDelay": "accessor: the bufferbloat delay a packet would wait",
	"segment.Store.LastFlushError": "accessor: the only reader of the background flush/compaction failure the store records",
	// Capabilities DESIGN §2–5 documents.
	"analysis.Rollup.UsageByGroup":          "DESIGN §5: usage beyond the US",
	"capture.Monitor.SetTrace":              "DESIGN §2: the optional pcap capture mirror",
	"fingerprint.Classifier.FlagSuspicious": "DESIGN §5 device fingerprinting: the security-alert scoring EXPERIMENTS.md's extension row asserts",
	"gateway.Agent.CapManager":              "DESIGN §5: the usage-cap manager the agent runs under Config.Plan",
	"gateway.Agent.CapAlerts":               "DESIGN §5: the alerts that usage-cap manager fires",
	"webui.NewWhitelist":                    "DESIGN §2/§5: the user whitelist the web UI's /api/whitelist manages",
	// Reached through an interface or a template.
	"mac.Addr.MarshalText":       "interface: encoding/json writes dataset rows' Device with it",
	"mac.Addr.UnmarshalText":     "interface: encoding/json reads JSON uploads' Device with it",
	"webui.DeviceRow.SharePct":   "template: the dashboard page calls it",
	"webui.EndpointStat.Fmt50":   "template: the /pipeline page calls it",
	"webui.EndpointStat.Fmt99":   "template: the /pipeline page calls it",
	"webui.PipelineTrace.FmtDur": "template: the /pipeline page calls it",
}

// TestInternalExportsHaveCallers fails when an exported function or
// method declared under internal/ has no identifier reference in any
// non-test .go file of the repository (benchmarks/ included) other than
// its declarations, and the allowlist gives no reason to keep it. The
// match is by name alone, so it can miss dead code — a name shared with
// a live one counts as live — but it never flags live code, except for
// calls through an interface or a template, which go in the allowlist.
func TestInternalExportsHaveCallers(t *testing.T) {
	refs := map[string]int{}  // identifier -> occurrences in non-test code
	decls := map[string]int{} // exported func/method name -> declarations under internal/
	found := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				refs[lit]++
			}
		}
		rel, ok := strings.CutPrefix(filepath.ToSlash(path), "internal/")
		if !ok {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[fn.Name.Name]++
			found[key] = fn.Name.Name
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, name := range found {
		if refs[name] > decls[name] {
			continue
		}
		if reason, ok := exportAllowlist[key]; ok && strings.TrimSpace(reason) != "" {
			continue
		}
		dead = append(dead, key)
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: exported under internal/ but referenced by no non-test code; delete it or give exportAllowlist a reason", key)
	}
	for key := range exportAllowlist {
		name, ok := found[key]
		if !ok {
			t.Errorf("exportAllowlist: %s is not declared under internal/", key)
		} else if refs[name] > decls[name] {
			t.Errorf("exportAllowlist: %s has non-test callers; drop its entry", key)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
