package engine

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

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
// registered like any other. It is plain data, so the batch codec carries
// it; DecodeBatch refuses a Tag that no sequence of RootTag and Push makes
// (validTag), so the methods below can index IDs by Levels.
type Tag struct {
	Levels uint8                    // the number of composed levels
	IDs    [MaxNestingLevels]uint64 // the levels' ids, outermost first; zero past Levels
}

// RootTag creates a level-1 tag.
func RootTag(id uint64) Tag {
	return Tag{Levels: 1, IDs: [MaxNestingLevels]uint64{id}}
}

// Push derives the tag of a nested invocation inside t.
// It panics if the maximum nesting depth is exceeded (programmer error:
// the parsing phase never emits deeper programs).
func (t Tag) Push(id uint64) Tag {
	if int(t.Levels) >= MaxNestingLevels {
		panic(fmt.Sprintf("engine: tag depth %d exceeds MaxNestingLevels", t.Levels+1))
	}
	t.IDs[t.Levels] = id
	t.Levels++
	return t
}

// Pop removes the innermost level, returning the enclosing invocation's
// tag. It panics on a zero-depth tag.
func (t Tag) Pop() Tag {
	if t.Levels == 0 {
		panic("engine: Pop on empty tag")
	}
	t.Levels--
	t.IDs[t.Levels] = 0
	return t
}

// Depth returns the number of composed levels.
func (t Tag) Depth() int { return int(t.Levels) }

// Leaf returns the innermost level's id.
func (t Tag) Leaf() uint64 {
	if t.Levels == 0 {
		return 0
	}
	return t.IDs[t.Levels-1]
}

func (t Tag) String() string {
	if t.Levels == 0 {
		return "τ()"
	}
	s := "τ("
	for i := 0; i < int(t.Levels); i++ {
		if i > 0 {
			s += "."
		}
		s += fmt.Sprint(t.IDs[i])
	}
	return s + ")"
}

// validTag holds a decoded Tag to what RootTag and Push can make: at most
// MaxNestingLevels levels, and no id past its levels. Bytes can say
// anything, and the methods above index IDs by Levels.
func validTag(t *Tag) error {
	if t.Levels > MaxNestingLevels {
		return codecErr("tag of depth %d exceeds MaxNestingLevels (%d)", t.Levels, MaxNestingLevels)
	}
	for i := int(t.Levels); i < MaxNestingLevels; i++ {
		if t.IDs[i] != 0 {
			return codecErr("tag of depth %d has a nonzero level %d", t.Levels, i+1)
		}
	}
	return nil
}

// tagSites is where the rows of a type hold a Tag: at offsets in the row
// itself, structs and arrays expanded, and in the elements of its slices.
// DecodeBatch looks a row type's sites up once a frame and holds every Tag
// it decodes to validTag; a type that holds no Tag has none (nil), and its
// rows cost nothing more.
type tagSites struct {
	at     []uintptr
	slices []tagSlice
}

// tagSlice is a slice of a row whose elements hold a Tag.
type tagSlice struct {
	off, size uintptr // the slice's offset in the row, its element's size
	elem      *tagSites
}

var (
	typTag   = reflect.TypeFor[Tag]()
	tagCache sync.Map // reflect.Type -> *tagSites
)

// tagSitesOf returns the tag sites of t, found on the first call for t.
func tagSitesOf(t reflect.Type) *tagSites {
	if s, ok := tagCache.Load(t); ok {
		return s.(*tagSites)
	}
	s, _ := tagCache.LoadOrStore(t, findTags(t, map[reflect.Type]*tagSites{}))
	return s.(*tagSites)
}

// findTags finds the tag sites of t. open holds the sites of the types
// being searched, so that a type holding itself through a slice checks
// those elements by its own sites.
func findTags(t reflect.Type, open map[reflect.Type]*tagSites) *tagSites {
	if !holdsTag(t, nil) {
		return nil
	}
	if s, ok := open[t]; ok {
		return s
	}
	s := &tagSites{}
	open[t] = s
	s.add(t, 0, open)
	return s
}

// add appends the sites of a t at offset off to s.
func (s *tagSites) add(t reflect.Type, off uintptr, open map[reflect.Type]*tagSites) {
	switch {
	case t == typTag:
		s.at = append(s.at, off)
	case t.Kind() == reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			s.add(f.Type, off+f.Offset, open)
		}
	case t.Kind() == reflect.Array:
		for i := range t.Len() {
			s.add(t.Elem(), off+uintptr(i)*t.Elem().Size(), open)
		}
	case t.Kind() == reflect.Slice:
		if e := findTags(t.Elem(), open); e != nil {
			s.slices = append(s.slices, tagSlice{off: off, size: t.Elem().Size(), elem: e})
		}
	}
}

// holdsTag reports whether a value of t can hold a Tag. open lists the
// slice types whose elements are being searched.
func holdsTag(t reflect.Type, open []reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		if t == typTag {
			return true
		}
		for i := range t.NumField() {
			if holdsTag(t.Field(i).Type, open) {
				return true
			}
		}
	case reflect.Array:
		return t.Len() > 0 && holdsTag(t.Elem(), open)
	case reflect.Slice:
		return !slices.Contains(open, t) && holdsTag(t.Elem(), append(open, t))
	}
	return false
}

// check holds every Tag of the row at p to validTag.
func (s *tagSites) check(p unsafe.Pointer) error {
	for _, off := range s.at {
		if err := validTag((*Tag)(unsafe.Add(p, off))); err != nil {
			return err
		}
	}
	for _, sl := range s.slices {
		h := (*sliceHeader)(unsafe.Add(p, sl.off))
		for j := range uintptr(h.Len) {
			if err := sl.elem.check(unsafe.Add(h.Data, j*sl.size)); err != nil {
				return err
			}
		}
	}
	return nil
}
