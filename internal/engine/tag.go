package engine

import "fmt"

// MaxNestingLevels is the number of parallelism levels supported: an
// outermost level plus up to three lifted levels, which covers the paper's
// deepest workload (Average Distances, three levels of parallel operations).
const MaxNestingLevels = 3

// Tag identifies one invocation of an original (unlifted) UDF. Every
// element of the flat bag representing an InnerScalar or InnerBag carries
// the tag of the invocation it belonged to. For nesting deeper than two
// levels, tags compose: the tag of an inner invocation is the outer tag
// with one more level pushed (the composite keys of Sec. 7).
//
// Tag is the lifting machinery's key (internal/core). It lives here, below
// core and internal/taskreg, so that a kernel over Pair[Tag, A] can be
// registered like any other. Its fields are unexported, so a Tag is not
// plain data and the batch codec does not carry it yet: a stage over
// tagged rows is not shipped to the process pool.
type Tag struct {
	depth uint8
	lv    [MaxNestingLevels]uint64
}

// RootTag creates a level-1 tag.
func RootTag(id uint64) Tag {
	return Tag{depth: 1, lv: [MaxNestingLevels]uint64{id}}
}

// Push derives the tag of a nested invocation inside t.
// It panics if the maximum nesting depth is exceeded (programmer error:
// the parsing phase never emits deeper programs).
func (t Tag) Push(id uint64) Tag {
	if int(t.depth) >= MaxNestingLevels {
		panic(fmt.Sprintf("engine: tag depth %d exceeds MaxNestingLevels", t.depth+1))
	}
	t.lv[t.depth] = id
	t.depth++
	return t
}

// Pop removes the innermost level, returning the enclosing invocation's
// tag. It panics on a zero-depth tag.
func (t Tag) Pop() Tag {
	if t.depth == 0 {
		panic("engine: Pop on empty tag")
	}
	t.depth--
	t.lv[t.depth] = 0
	return t
}

// Depth returns the number of composed levels.
func (t Tag) Depth() int { return int(t.depth) }

// Leaf returns the innermost level's id.
func (t Tag) Leaf() uint64 {
	if t.depth == 0 {
		return 0
	}
	return t.lv[t.depth-1]
}

func (t Tag) String() string {
	if t.depth == 0 {
		return "τ()"
	}
	s := "τ("
	for i := 0; i < int(t.depth); i++ {
		if i > 0 {
			s += "."
		}
		s += fmt.Sprint(t.lv[i])
	}
	return s + ")"
}
