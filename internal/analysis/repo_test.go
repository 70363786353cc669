package analysis

import "testing"

// TestSuiteComplete pins the v2 roster: a future analyzer must be added
// to All (and the README table) or it silently never runs in make lint.
func TestSuiteComplete(t *testing.T) {
	t.Parallel()
	want := []string{
		"nondeterminism", "rewardconst", "schedonly", "droppederr",
		"toolidmap", "shardaffinity", "lockheld", "hotalloc", "testonly",
		"ignorecheck",
	}
	if len(All) != len(want) {
		t.Fatalf("All has %d analyzers, want %d", len(All), len(want))
	}
	for i, name := range want {
		if All[i].Name != name {
			t.Errorf("All[%d] = %q, want %q", i, All[i].Name, name)
		}
		if ByName(name) != All[i] {
			t.Errorf("ByName(%q) does not resolve to All[%d]", name, i)
		}
	}
	if All[len(All)-1] != IgnoreCheck {
		t.Error("ignorecheck must run last: it audits the other analyzers' suppressions")
	}
}

// TestRepoIsVetClean dogfoods the whole suite on the repository itself:
// the module must load, type-check and come back with zero findings —
// the same gate cmd/coreda-vet enforces in `make lint`.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list and type-checks the module from source")
	}
	t.Parallel()
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("go list returned no packages")
	}
	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			t.Errorf("%s: type-check produced no info: %v", pkg.ImportPath, pkg.TypeErrs)
		}
		for _, e := range pkg.TypeErrs {
			t.Errorf("%s: type error: %v", pkg.ImportPath, e)
		}
	}
	for _, f := range RunPackages(pkgs, All) {
		t.Errorf("finding on clean repo: %s", f)
	}

	// testonly judged every declaration against the whole program: the
	// module plus perfbench, whatever the vetted patterns were.
	prog, err := pkgs[0].Program.Packages()
	if err != nil {
		t.Fatalf("loading the whole program: %v", err)
	}
	perfbench := false
	for _, pkg := range prog {
		perfbench = perfbench || pkg.ImportPath == "coreda/perfbench"
		for _, e := range pkg.TypeErrs {
			t.Errorf("%s: type error: %v", pkg.ImportPath, e)
		}
	}
	if !perfbench {
		t.Error("the testonly program does not include the perfbench module")
	}
}
