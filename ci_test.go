package distflow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The CI workflow names tests by pattern: the determinism, shard-matrix
// and chaos jobs pick them with `go test -run 'A|B|…' pkg`, and the fuzz
// steps with `-fuzz Name`. A test that is deleted or renamed silently
// drops out of such a job — `go test -run` happily matches nothing — so
// every alternative of every -run pattern, and every -fuzz target, must
// still name a test function of the package its step runs.
func TestCIWorkflowTestNamesExist(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := goTestCommands(string(yml))
	if len(cmds) == 0 {
		t.Fatal("found no go test commands in ci.yml")
	}
	for _, problem := range checkGoTestCommands(t, cmds) {
		t.Error(problem)
	}
}

// The guard itself must catch a misspelled name, in a -run alternative
// and in a -fuzz target alike.
func TestCIWorkflowGuardCatchesMisspelling(t *testing.T) {
	yml := `
      - name: determinism
        run: >
          go test -race -count=1 -run
          'TestMaxFlowBatchMatchesSequential|TestMaxFlowCtxCancelld'
          -v .
      - name: fuzz
        run: |
          for target in FuzzMaxFlow FuzzShardEquivalance; do
            go test -run '^$' -fuzz "^${target}\$" -fuzztime 600s .
          done
`
	problems := checkGoTestCommands(t, goTestCommands(yml))
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "TestMaxFlowCtxCancelld") ||
		!strings.Contains(problems[1], "FuzzShardEquivalance") {
		t.Fatalf("guard reported %q, want the two misspellings", problems)
	}
}

// goTestCommand is one `go test` invocation of the workflow: its -run
// pattern and -fuzz target (either may be empty) and its packages.
type goTestCommand struct {
	run, fuzz string
	pkgs      []string
}

// goTestCommands extracts the go test invocations of a workflow's run
// steps. It understands exactly the shapes ci.yml uses: one-line run
// values, folded (>) and literal (|) blocks with `\` line continuations,
// and a `for v in a b c; do` loop whose variable a -fuzz argument names.
func goTestCommands(yml string) []goTestCommand {
	var out []goTestCommand
	lines := strings.Split(yml, "\n")
	runKey := regexp.MustCompile(`^(\s*(?:- )?)run:\s*(.*)$`)
	forLoop := regexp.MustCompile(`for (\w+) in ([^;]+);`)
	for i := 0; i < len(lines); i++ {
		m := runKey.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		var block []string
		switch style := strings.TrimSpace(m[2]); style {
		case ">", ">-", "|", "|-":
			indent := len(m[1])
			cont := false // the previous line ended in a shell `\`
			for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" ||
				len(lines[i+1])-len(strings.TrimLeft(lines[i+1], " ")) > indent) {
				i++
				l := strings.TrimSpace(lines[i])
				if cont {
					block[len(block)-1] += " " + l
				} else {
					block = append(block, l)
				}
				if cont = strings.HasSuffix(l, `\`); cont {
					block[len(block)-1] = strings.TrimSuffix(block[len(block)-1], `\`)
				}
			}
			if style[0] == '>' {
				block = []string{strings.Join(block, " ")}
			}
		default:
			block = []string{style}
		}
		loops := map[string][]string{}
		for _, l := range block {
			for _, fm := range forLoop.FindAllStringSubmatch(l, -1) {
				loops[fm[1]] = strings.Fields(fm[2])
			}
		}
		for _, l := range block {
			if c, ok := parseGoTest(l); ok {
				out = append(out, expandLoops(c, loops)...)
			}
		}
	}
	return out
}

// parseGoTest parses the go test invocation on one shell line.
func parseGoTest(line string) (goTestCommand, bool) {
	var c goTestCommand
	f := strings.Fields(strings.NewReplacer(`'`, "", `"`, "").Replace(line))
	start := -1
	for i := 0; i+1 < len(f); i++ {
		if f[i] == "go" && f[i+1] == "test" {
			start = i + 2
			break
		}
	}
	if start < 0 {
		return c, false
	}
	boolFlags := map[string]bool{"-race": true, "-v": true, "-short": true}
	for i := start; i < len(f); i++ {
		tok := f[i]
		switch {
		case tok == "|" || tok == "&&" || tok == ";" || strings.HasPrefix(tok, "2>"):
			return c, true
		case !strings.HasPrefix(tok, "-"):
			c.pkgs = append(c.pkgs, tok)
		case boolFlags[tok] || strings.Contains(tok, "="):
		case i+1 < len(f):
			i++
			switch tok {
			case "-run":
				c.run = f[i]
			case "-fuzz":
				c.fuzz = f[i]
			}
		}
	}
	return c, true
}

// expandLoops substitutes a loop variable named in the -fuzz argument by
// each of its values; the workflow escapes the regexp's `$` as `\$`.
func expandLoops(c goTestCommand, loops map[string][]string) []goTestCommand {
	c.fuzz = strings.ReplaceAll(c.fuzz, `\$`, "$")
	for v, vals := range loops {
		ref := "${" + v + "}"
		if !strings.Contains(c.fuzz, ref) {
			continue
		}
		var out []goTestCommand
		for _, val := range vals {
			e := c
			e.fuzz = strings.ReplaceAll(c.fuzz, ref, val)
			out = append(out, e)
		}
		return out
	}
	return []goTestCommand{c}
}

// checkGoTestCommands reports every -run alternative that matches no
// Test/Fuzz/Example function of the command's packages, and every -fuzz
// target that does not match exactly one Fuzz function (go test refuses
// any other count).
func checkGoTestCommands(t *testing.T, cmds []goTestCommand) []string {
	t.Helper()
	var problems []string
	for _, c := range cmds {
		if c.run == "^$" {
			c.run = "" // deliberately selects no test
		}
		if c.run == "" && c.fuzz == "" {
			continue
		}
		names := testFuncNames(t, c.pkgs)
		pkgs := strings.Join(c.pkgs, " ")
		for _, alt := range strings.Split(c.run, "|") {
			if alt == "" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				problems = append(problems, fmt.Sprintf("-run alternative %s: %v", alt, err))
				continue
			}
			if !anyMatch(re, names, "Test", "Fuzz", "Example") {
				problems = append(problems, fmt.Sprintf("-run alternative %s matches no test in %s", alt, pkgs))
			}
		}
		if c.fuzz != "" {
			re, err := regexp.Compile(c.fuzz)
			if err != nil {
				problems = append(problems, fmt.Sprintf("-fuzz %s: %v", c.fuzz, err))
				continue
			}
			n := 0
			for _, name := range names {
				if strings.HasPrefix(name, "Fuzz") && re.MatchString(name) {
					n++
				}
			}
			if n != 1 {
				problems = append(problems, fmt.Sprintf("-fuzz %s matches %d fuzz targets in %s, want 1", c.fuzz, n, pkgs))
			}
		}
	}
	return problems
}

func anyMatch(re *regexp.Regexp, names []string, prefixes ...string) bool {
	for _, name := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// testFuncNames lists the top-level function names declared in the
// _test.go files of the given package directories.
func testFuncNames(t *testing.T, dirs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		if strings.Contains(dir, "...") {
			t.Fatalf("package pattern %s: name its directories instead", dir)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	return names
}
