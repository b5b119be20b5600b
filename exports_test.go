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
	"stats.Gini":       "reference: figures.TestMeanGiniDeterministic checks fig17's gini against it",
	"stats.Summarize":  "reference: the analysis oracle summarizes samples with it",
	// Test-harness entry points.
	"verify.BuildSnapshot":       "harness: the verify goldens snapshot a store with it",
	"verify.RunCluster":          "harness: the cluster and segment goldens run a deployment through it",
	"verify.RunClusterRebalance": "harness: the join and drain goldens run through it",
	// Accessors through which a test observes production behaviour.
	"analysis.Rollup.KeptRows":             "accessor: the kept rows a rollup view was folded from, per kind",
	"analysis.NewGapIndex":                 "accessor: the downtimes and uptime fractions of a log's routers alone, which the availability oracles read",
	"analysis.Rollup.ClassifyAvailability": "accessor: one router's Fig. 6 mode, which the kept-kind oracle test reads",
	"linksim.Direction.QueueDelay":         "accessor: the bufferbloat delay a packet would wait",
	"segment.Store.LastFlushError":         "accessor: the only reader of the background flush/compaction failure the store records",
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
// its declarations, and the allowlist gives no reason to keep it. It
// tokenizes every file for identifiers and parses only internal/ for the
// declarations. The match is by name alone, so it can miss dead code — a
// name shared with a live one counts as live. It can also flag live code
// that no identifier names, such as a method called through an interface
// or a template; such a method needs an allowlist reason.
func TestInternalExportsHaveCallers(t *testing.T) {
	refs := map[string]int{}  // identifier -> occurrences in non-test code
	decls := map[string]int{} // exported func/method name -> declarations under internal/
	found := map[string]string{}
	fset := token.NewFileSet()
	eachNonTestFile(t, func(path string, src []byte) error {
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

// configAllowlist names the exported fields of the config structs under
// internal/ that no non-test code outside their package sets, each with
// the reason it stays. Keys are "pkg.Type.Field". Three more fields are
// set only by tests but need no entry, because live fields share their
// names: spool.Config.Timeout (the collector tests' seam, like RetryMin
// and RetryMax) and linksim.Config.PeakBps and BurstBytes (the PowerBoost
// link of the train-length ablation).
var configAllowlist = map[string]string{
	// Test seams.
	"spool.Config.RetryMin": "test seam: the collector tests shorten the upload backoff",
	"spool.Config.RetryMax": "test seam: the collector tests shorten the upload backoff",
	// Fault parameters a test drives.
	"linksim.Config.LossProb": "fault: the lossy link of shaperprobe's loss test",
	// Set inside their package from a binary's flags.
	"trace.Config.SampleRate":    "set through Recorder.SetSampling from bismark-server -trace-sample",
	"trace.Config.SlowThreshold": "set through Recorder.SetSampling from bismark-server -trace-slow",
	// Capabilities DESIGN §2/§5 documents; no binary wires them yet.
	"gateway.Config.Plan":          "DESIGN §5: the usage-cap manager the agent runs under a plan",
	"gateway.Config.UserWhitelist": "DESIGN §2/§5: user-added domains the capture keeps by name",
	"webui.Config.GetWhitelist":    "DESIGN §2/§5: the web UI's GET /api/whitelist",
	"webui.Config.AddWhitelist":    "DESIGN §2/§5: the web UI's POST /api/whitelist",
	"webui.Config.RemoveWhitelist": "DESIGN §2/§5: the web UI's DELETE /api/whitelist",
}

// isConfigType reports whether TestConfigFieldsHaveSetters covers the
// struct type name declared in the package pkg under internal/.
func isConfigType(pkg, name string) bool {
	switch pkg + "." + name {
	case "capmgmt.Plan", "gateway.Env":
		return true
	}
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Opts")
}

// TestConfigFieldsHaveSetters fails when an exported field of a config
// struct under internal/ (a type named *Config, *Options or *Opts, or
// capmgmt.Plan or gateway.Env) is set by no non-test .go file outside
// its package, as a composite-literal key (F: v) or an assignment
// target (x.F = v), and configAllowlist gives no reason to keep it. A
// field only its own package's tests set is a test seam: unexport it.
// It parses every file. Like TestInternalExportsHaveCallers it matches
// by name, so it can miss a dead field whose name a live one shares. It
// can also flag a live field set in a way it does not see: a positional
// composite literal, a nested target (x.F.G = v), reflection or
// decoding; such a field needs an allowlist reason.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fields := map[string]string{}         // "pkg.Type.Field" -> Field
	setIn := map[string]map[string]bool{} // field name -> directories of the files that set it
	set := func(name, dir string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][dir] = true
	}
	fset := token.NewFileSet()
	eachNonTestFile(t, func(path string, src []byte) error {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set(id.Name, dir)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel.Name, dir)
					}
				}
			}
			return true
		})
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			return nil
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !isConfigType(pkg, ts.Name.Name) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							fields[pkg+"."+ts.Name.Name+"."+name.Name] = name.Name
						}
					}
				}
			}
		}
		return nil
	})
	setOutside := func(key string) bool {
		home := "internal/" + key[:strings.Index(key, ".")]
		for dir := range setIn[fields[key]] {
			if dir != home {
				return true
			}
		}
		return false
	}
	var unset []string
	for key := range fields {
		if setOutside(key) {
			continue
		}
		if reason, ok := configAllowlist[key]; ok && strings.TrimSpace(reason) != "" {
			continue
		}
		unset = append(unset, key)
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: exported config field that no non-test code outside its package sets; make it a constant, unexport it, or give configAllowlist a reason", key)
	}
	for key := range configAllowlist {
		if _, ok := fields[key]; !ok {
			t.Errorf("configAllowlist: %s is not an exported config field under internal/", key)
		} else if setOutside(key) {
			t.Errorf("configAllowlist: %s is set outside its package; drop its entry", key)
		}
	}
}

// eachNonTestFile calls fn with the path and contents of every non-test
// .go file of the repository, benchmarks/ and examples/ included, and
// hidden and testdata directories skipped.
func eachNonTestFile(t *testing.T, fn func(path string, src []byte) error) {
	t.Helper()
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
		return fn(path, src)
	})
	if err != nil {
		t.Fatal(err)
	}
}
