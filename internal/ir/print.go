package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Render pretty-prints the parsing phase's output: the program with every
// binding annotated by its nesting primitive, lifted maps marked as
// mapWithLiftedUDF, groupBys as groupByKeyIntoNestedBag, and closures made
// explicit — a textual form of the paper's Listing 1 → Listing 2 rewrite.
func (ps *Parsed) Render() string {
	var b strings.Builder
	for _, l := range ps.Prog.Lets {
		fmt.Fprintf(&b, "val %s: %s = %s\n", l.Name, ps.TopKinds[l.Name], ps.render(l.E, nil))
	}
	fmt.Fprintf(&b, "return %s\n", ps.Prog.Result)
	return b.String()
}

// render returns the one-line form of an expression at top level (info ==
// nil) or inside the lifted UDF that info annotates, where references to
// closures are marked. A lifted map's body follows on its own lines.
func (ps *Parsed) render(e Expr, info *FnInfo) string {
	var in []string
	for _, o := range operands(e) {
		in = append(in, ps.render(o, info))
	}
	switch x := e.(type) {
	case Ref:
		if info != nil {
			if k, ok := info.Closures[x.Name]; ok {
				return fmt.Sprintf("%s/*closure:%s*/", x.Name, k)
			}
		}
		return x.Name
	case Const:
		return fmt.Sprintf("%v", x.V)
	case Source:
		return fmt.Sprintf("read(%q)", x.Name)
	case GroupByKey:
		return in[0] + ".groupByKeyIntoNestedBag()"
	case Map:
		if x.UDF != nil {
			return ps.renderLiftedMap(in[0], x.UDF)
		}
		return in[0] + ".map(f)"
	case Filter:
		return in[0] + ".filter(p)"
	case FlatMap:
		return in[0] + ".flatMap(f)"
	case Distinct:
		return in[0] + ".distinct()"
	case ReduceByKey:
		return in[0] + ".reduceByKey(f)"
	case Count:
		return in[0] + ".count()"
	case Reduce:
		return in[0] + ".reduce(f)"
	case Union:
		return fmt.Sprintf("%s.union(%s)", in[0], in[1])
	case UnOp:
		return fmt.Sprintf("unaryScalarOp(%s)(f)", in[0])
	case BinOp:
		return fmt.Sprintf("binaryScalarOp(%s, %s)(f)", in[0], in[1])
	}
	return fmt.Sprintf("<%T>", e)
}

// renderLiftedMap renders mapWithLiftedUDF over the rendered input in:
// the UDF's parameters with their inner kinds, its closures, and its body.
func (ps *Parsed) renderLiftedMap(in string, fn *Fn) string {
	info := ps.Fns[fn]
	var params []string
	for i, p := range fn.Params {
		params = append(params, fmt.Sprintf("%s: %s", p, info.ParamKinds[i]))
	}
	closures := ""
	if len(info.Closures) > 0 {
		var cs []string
		for name, k := range info.Closures {
			cs = append(cs, fmt.Sprintf("%s: %s", name, k))
		}
		sort.Strings(cs)
		closures = fmt.Sprintf("  // closures: %s\n", strings.Join(cs, ", "))
	}
	return fmt.Sprintf("%s.mapWithLiftedUDF { (%s) =>\n%s%s}",
		in, strings.Join(params, ", "), closures, ps.renderBody(fn.Body, info, "  "))
}

func (ps *Parsed) renderBody(body []Stmt, info *FnInfo, indent string) string {
	var b strings.Builder
	for _, st := range body {
		switch s := st.(type) {
		case LetS:
			fmt.Fprintf(&b, "%sval %s: %s = %s\n", indent, s.Name, info.VarKinds[s.Name], ps.render(s.E, info))
		case While:
			fmt.Fprintf(&b, "%sliftedWhile(%s) {\n", indent, strings.Join(s.Vars, ", "))
			for _, l := range s.Body {
				fmt.Fprintf(&b, "%s  val %s = %s\n", indent, l.Name, ps.render(l.E, info))
			}
			fmt.Fprintf(&b, "%s} while (%s)\n", indent, ps.render(s.Cond, info))
		case If:
			fmt.Fprintf(&b, "%sliftedIf(%s) over (%s) { ... } else { ... }\n",
				indent, ps.render(s.Cond, info), strings.Join(s.Vars, ", "))
		case Return:
			fmt.Fprintf(&b, "%sreturn %s\n", indent, ps.render(s.E, info))
		}
	}
	return b.String()
}
