package main

import (
	"embed"
	"fmt"
	"strings"
)

// inputs holds pinned copies of the example DSL programs and the CI policy
// files, so the benchmark's requests stay fixed when the examples change.
//
//go:embed inputs/*.pfl inputs/*.policy
var inputs embed.FS

func input(name string) string {
	b, err := inputs.ReadFile("inputs/" + name)
	if err != nil {
		panic(fmt.Sprintf("perfbench: missing pinned input %s", name)) // embedded at build time
	}
	return string(b)
}

// renameProgram replaces the DSL program's name. Reports do not print it,
// but the cache key hashes it, so a renamed program is a distinct request
// with the original's report.
func renameProgram(src, name string) string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "program ") {
			lines[i] = "program " + name
			break
		}
	}
	return strings.Join(lines, "\n")
}
