package dsa

// FieldsOverlap reports whether two field paths of the same object can
// touch common storage: equal paths, or one a prefix of the other (the
// whole-object path "" overlaps everything).  Array steps "[]" stand for
// any element, so they overlap positionally.
func FieldsOverlap(a, b string) bool {
	if a == "" || b == "" || a == b {
		return true
	}
	return isSubpath(a, b) || isSubpath(b, a)
}

// isSubpath reports whether path a lies strictly inside path b: it
// starts with b followed by ".".  Unlike strings.HasPrefix(a, b+".") it
// builds no string.
func isSubpath(a, b string) bool {
	return len(a) > len(b) && a[len(b)] == '.' && a[:len(b)] == b
}

// FieldCovers reports whether a flush of path a fully covers storage at
// path b — a equals b or is an ancestor of b.
func FieldCovers(a, b string) bool {
	if a == "" || a == b {
		return true
	}
	return isSubpath(b, a)
}

// MayAlias reports whether two cells can refer to overlapping storage.
// Cells in different DSG node classes never alias (the unification
// discipline guarantees it); cells in the same class alias if their field
// paths overlap.
func MayAlias(a, b Cell) bool {
	a, b = a.Norm(), b.Norm()
	if a.Obj == nil || b.Obj == nil {
		return false
	}
	if a.Obj != b.Obj {
		return false
	}
	return FieldsOverlap(a.Field, b.Field)
}

// MustAlias reports whether two cells certainly refer to the same
// storage: same representative, identical field path, and a node that was
// neither collapsed nor merged from multiple allocation sites.
func MustAlias(a, b Cell) bool {
	a, b = a.Norm(), b.Norm()
	if a.Obj == nil || b.Obj == nil || a.Obj != b.Obj || a.Field != b.Field {
		return false
	}
	return !a.Obj.Collapsed() && len(a.Obj.Find().Sites) <= 1
}

// SameObject reports whether two cells point into the same object class.
func SameObject(a, b Cell) bool {
	a, b = a.Norm(), b.Norm()
	return a.Obj != nil && a.Obj == b.Obj
}
