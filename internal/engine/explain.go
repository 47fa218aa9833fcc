package engine

import (
	"fmt"
	"strings"
)

// Explain renders the dataset's lineage DAG as an indented tree: one line
// per node with its operator label, partition count, record weight,
// partitioning (if any) and how each child consumes its parent (narrow /
// shuffle / broadcast). Shared sub-plans are printed once and referenced
// by id afterwards.
func Explain[T any](d Dataset[T]) string {
	var b strings.Builder
	seen := map[*node]bool{}
	var walk func(n *node, depth int, via string)
	walk = func(n *node, depth int, via string) {
		indent := strings.Repeat("  ", depth)
		attrs := []string{fmt.Sprintf("parts=%d", n.parts)}
		if n.weight > 1 {
			attrs = append(attrs, fmt.Sprintf("weight=%.0f", n.weight))
		}
		if n.pkey != nil {
			attrs = append(attrs, fmt.Sprintf("partitioned-by=%s/%d", n.pkey.keyType, n.pkey.parts))
		}
		if n.cached {
			attrs = append(attrs, "cached")
		}
		prefix := ""
		if via != "" {
			prefix = via + " "
		}
		if seen[n] {
			fmt.Fprintf(&b, "%s%s#%d %s (shared)\n", indent, prefix, n.id, n.label)
			return
		}
		seen[n] = true
		fmt.Fprintf(&b, "%s%s#%d %s [%s]\n", indent, prefix, n.id, n.label, strings.Join(attrs, " "))
		for i := range n.deps {
			walk(n.deps[i].parent, depth+1, "<-"+n.deps[i].kind.String())
		}
	}
	walk(d.n, 0, "")
	return b.String()
}

// ExplainPhysical runs the planning step an action would run for this
// dataset and renders the resulting physical plan: the stages the job
// would launch, their shuffle/broadcast dependencies, the pipelined
// operator chains, and the fan-in memo sites. Unlike Explain (the logical
// lineage), this is exactly what the executor consumes.
func ExplainPhysical[T any](d Dataset[T]) string {
	s := d.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buildExecPlan(d.n, nil).String()
}
