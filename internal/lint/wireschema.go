package lint

// Wire-schema extraction: a small abstract interpreter over the bodies of
// MarshalWire/UnmarshalWire methods (and package-level PutX/GetX helper
// pairs) that recovers the linear put/get sequence each one performs on a
// wire.Buffer / wire.Reader — including loops over repeated elements, nested
// message encodes, and `r.Remaining()`-guarded trailing optionals — as a
// canonical per-message schema.
//
// The extracted schemas feed three analyzers (wiresym, wireevolve, wirealias)
// and the `redbud-lint -wireschema` golden-lockfile gate. The interpreter is
// deliberately syntactic: it models exactly the shapes the codebase's
// hand-written codecs use (straight-line puts/gets, one optional branch per
// if, for/range loops, codec calls inside conditions and return expressions)
// and emits an explicit "unsupported" op for anything else, so novel control
// flow fails loudly in wiresym instead of silently extracting wrong.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireOp is one step of a message's canonical wire schema.
type WireOp struct {
	// Kind is a primitive ("u8", "bool", "u16", "u32", "u64", "i64", "f64",
	// "dur", "time", "bytes", "str"), a nested message encode
	// ("msg:<pkg>.<Type>"), a helper-pair call ("fn:<pkg>.<Suffix>"), a
	// composite ("loop", "opt" — sequence in Body), or "unsupported" for
	// control flow the extractor cannot model.
	Kind string
	// Body holds the nested sequence for "loop" and "opt" ops.
	Body []WireOp
	// Guarded marks an "opt" whose condition checks r.Remaining() — the
	// trailing-optional evolution idiom. Decoder-side only; encoders gate on
	// the version field instead.
	Guarded bool
	// Ref marks a "bytes" op decoded with BytesRef (aliases the pooled
	// frame) rather than Bytes (copies).
	Ref bool
	// Pos anchors diagnostics to the call or statement that produced the op.
	Pos token.Pos
}

// String renders the op in canonical lockfile form.
func (op WireOp) String() string {
	switch op.Kind {
	case "loop", "opt":
		return op.Kind + "[" + renderWireOps(op.Body) + "]"
	}
	return op.Kind
}

// renderWireOps renders a sequence space-separated.
func renderWireOps(ops []WireOp) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// wireOpWidth returns the encoded size in bytes of a primitive op, or -1 for
// variable-length and composite kinds. Used for width-mismatch diagnostics.
func wireOpWidth(kind string) int {
	switch kind {
	case "u8", "bool":
		return 1
	case "u16":
		return 2
	case "u32":
		return 4
	case "u64", "i64", "f64", "dur", "time":
		return 8
	}
	return -1
}

// MessageSchema is the extracted encoder/decoder pair for one wire message
// type (MarshalWire/UnmarshalWire methods) or one helper pair (package-level
// PutX/GetX functions).
type MessageSchema struct {
	PkgName string // package name ("proto") — analyzers match on this
	PkgPath string // import path — the lockfile renders this
	Name    string // type name, or helper suffix ("Extents" for Put/GetExtents)
	Helper  bool   // true for a PutX/GetX pair rather than methods

	HasEnc, HasDec bool
	Enc, Dec       []WireOp
	EncPos, DecPos token.Pos
}

// DisplayName names the schema in diagnostics and the lockfile.
func (s *MessageSchema) DisplayName() string {
	if s.Helper {
		return s.Name + "()"
	}
	return s.Name
}

// ExtractWireSchemas walks the non-test files of a type-checked package and
// extracts the wire schema of every message codec it declares, sorted by
// name. One-sided pairs are kept (HasEnc/HasDec tell) except helpers with no
// codec ops at all, which are unrelated functions that merely share the
// Put/Get naming convention (e.g. wire.PutBuffer pool helpers).
func ExtractWireSchemas(fset *token.FileSet, files []*ast.File, info *types.Info, pkg *types.Package) []*MessageSchema {
	byName := make(map[string]*MessageSchema)
	get := func(name string, helper bool) *MessageSchema {
		s := byName[name]
		if s == nil {
			s = &MessageSchema{PkgName: pkg.Name(), PkgPath: pkg.Path(), Name: name, Helper: helper}
			byName[name] = s
		}
		return s
	}

	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name, mode, helper, ok := classifyCodecDecl(info, fd)
			if !ok {
				continue
			}
			x := &wireExtractor{info: info, mode: mode}
			ops := x.stmts(fd.Body.List)
			s := get(name, helper)
			if mode == wireEncode {
				s.HasEnc, s.Enc, s.EncPos = true, ops, fd.Pos()
			} else {
				s.HasDec, s.Dec, s.DecPos = true, ops, fd.Pos()
			}
		}
	}

	out := make([]*MessageSchema, 0, len(byName))
	for _, s := range byName {
		if s.Helper && len(s.Enc) == 0 && len(s.Dec) == 0 {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExtractPassSchemas is ExtractWireSchemas over an analyzer pass.
func ExtractPassSchemas(pass *Pass) []*MessageSchema {
	return ExtractWireSchemas(pass.Fset, pass.Files, pass.Info, pass.Pkg)
}

const (
	wireEncode = iota
	wireDecode
)

// classifyCodecDecl recognises the four codec declaration shapes:
// MarshalWire/UnmarshalWire methods (schema keyed by receiver type name) and
// package-level PutX/GetX functions taking a *wire.Buffer / *wire.Reader
// (schema keyed by the X suffix, Helper=true).
func classifyCodecDecl(info *types.Info, fd *ast.FuncDecl) (name string, mode int, helper, ok bool) {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return "", 0, false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", 0, false, false
	}
	if recv := sig.Recv(); recv != nil {
		n := namedOrigin(recv.Type())
		if n == nil || n.Obj() == nil {
			return "", 0, false, false
		}
		switch fd.Name.Name {
		case "MarshalWire":
			if sigHasParam(sig, "wire", "Buffer") {
				return n.Obj().Name(), wireEncode, false, true
			}
		case "UnmarshalWire":
			if sigHasParam(sig, "wire", "Reader") {
				return n.Obj().Name(), wireDecode, false, true
			}
		}
		return "", 0, false, false
	}
	if suffix, found := strings.CutPrefix(fd.Name.Name, "Put"); found && suffix != "" &&
		sigHasParam(sig, "wire", "Buffer") {
		return suffix, wireEncode, true, true
	}
	if suffix, found := strings.CutPrefix(fd.Name.Name, "Get"); found && suffix != "" &&
		sigHasParam(sig, "wire", "Reader") {
		return suffix, wireDecode, true, true
	}
	return "", 0, false, false
}

// sigHasParam reports whether any parameter of sig derefs to the named type.
func sigHasParam(sig *types.Signature, pkgName, typeName string) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isNamedType(sig.Params().At(i).Type(), pkgName, typeName) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The statement walker.

var wirePutKinds = map[string]string{
	"PutU8": "u8", "PutBool": "bool", "PutU16": "u16", "PutU32": "u32",
	"PutU64": "u64", "PutI64": "i64", "PutF64": "f64",
	"PutDuration": "dur", "PutTime": "time",
	"PutBytes": "bytes", "PutString": "str",
}

var wireGetKinds = map[string]string{
	"U8": "u8", "Bool": "bool", "U16": "u16", "U32": "u32",
	"U64": "u64", "I64": "i64", "F64": "f64",
	"Duration": "dur", "Time": "time",
	"Bytes": "bytes", "BytesRef": "bytes", "String": "str",
}

type wireExtractor struct {
	info *types.Info
	mode int
}

func (x *wireExtractor) stmts(list []ast.Stmt) []WireOp {
	var out []WireOp
	for _, st := range list {
		out = append(out, x.stmt(st)...)
	}
	return out
}

func (x *wireExtractor) stmt(st ast.Stmt) []WireOp {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return x.stmts(st.List)

	case *ast.RangeStmt:
		// `for _, e := range m.Slice { ... }` — one loop op per repeated
		// element sequence. Key/value exprs carry no codec calls.
		body := x.stmts(st.Body.List)
		if len(body) == 0 {
			return nil
		}
		return []WireOp{{Kind: "loop", Body: body, Pos: st.Pos()}}

	case *ast.ForStmt:
		var out []WireOp
		if st.Init != nil {
			out = append(out, x.stmt(st.Init)...)
		}
		// Conditions like `i < n && r.Err() == nil` carry no codec ops, but
		// a condition that did read the stream would repeat per iteration in
		// a way the linear schema cannot express — surface it.
		if cond := x.exprOps(st.Cond); len(cond) > 0 {
			out = append(out, WireOp{Kind: "unsupported", Pos: st.Cond.Pos()})
		}
		if body := x.stmts(st.Body.List); len(body) > 0 {
			out = append(out, WireOp{Kind: "loop", Body: body, Pos: st.Pos()})
		}
		return out

	case *ast.IfStmt:
		var out []WireOp
		if st.Init != nil {
			out = append(out, x.stmt(st.Init)...)
		}
		// Codec calls in the condition itself run unconditionally — the
		// `if e.UnmarshalWire(r) != nil { return }` idiom.
		out = append(out, x.exprOps(st.Cond)...)
		thenOps := x.stmts(st.Body.List)
		var elseOps []WireOp
		if st.Else != nil {
			elseOps = x.stmt(st.Else)
		}
		switch {
		case len(thenOps) == 0 && len(elseOps) == 0:
			// Pure error/limit check (`if r.Err() != nil { return ... }`).
		case len(elseOps) == 0:
			out = append(out, WireOp{Kind: "opt", Body: thenOps,
				Guarded: condChecksRemaining(x.info, st.Cond), Pos: st.Pos()})
		case len(thenOps) == 0:
			out = append(out, WireOp{Kind: "opt", Body: elseOps,
				Guarded: condChecksRemaining(x.info, st.Cond), Pos: st.Pos()})
		default:
			// Both branches touch the stream: a data-dependent layout the
			// linear schema cannot express.
			out = append(out, WireOp{Kind: "unsupported", Pos: st.Pos()})
		}
		return out

	case *ast.ReturnStmt:
		var out []WireOp
		for _, e := range st.Results {
			out = append(out, x.exprOps(e)...)
		}
		return out

	case *ast.LabeledStmt:
		return x.stmt(st.Stmt)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.GoStmt, *ast.DeferStmt:
		if ops := x.inspectOps(st); len(ops) > 0 {
			return []WireOp{{Kind: "unsupported", Pos: st.Pos()}}
		}
		return nil

	default:
		// Assignments, expression statements, declarations, inc/dec:
		// pre-order traversal matches evaluation order for the straight-line
		// call shapes codecs use.
		return x.inspectOps(st)
	}
}

// exprOps collects codec ops from a single expression (nil-safe).
func (x *wireExtractor) exprOps(e ast.Expr) []WireOp {
	if e == nil {
		return nil
	}
	return x.inspectOps(e)
}

// inspectOps collects codec calls under n in source order, without
// descending into matched calls or function literals. A function literal
// that itself performs codec calls is flagged unsupported: its execution
// order is not the statement order.
func (x *wireExtractor) inspectOps(n ast.Node) []WireOp {
	var out []WireOp
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if x.containsCodecCall(n.Body) {
				out = append(out, WireOp{Kind: "unsupported", Pos: n.Pos()})
			}
			return false
		case *ast.CallExpr:
			if op, ok := x.callOp(n); ok {
				out = append(out, op)
				return false
			}
		}
		return true
	})
	return out
}

// containsCodecCall reports whether any codec call appears under n.
func (x *wireExtractor) containsCodecCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := x.callOp(call); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callOp classifies one call expression as a codec op, if it is one.
func (x *wireExtractor) callOp(call *ast.CallExpr) (WireOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok {
		name := sel.Sel.Name
		if x.mode == wireEncode {
			if kind, ok := wirePutKinds[name]; ok && isNamedType(recvTypeOf(x.info, call), "wire", "Buffer") {
				return WireOp{Kind: kind, Pos: call.Pos()}, true
			}
			if name == "MarshalWire" {
				if msg, ok := nestedMsgKind(x.info, call, "wire", "Buffer"); ok {
					return WireOp{Kind: msg, Pos: call.Pos()}, true
				}
			}
		} else {
			if kind, ok := wireGetKinds[name]; ok && isNamedType(recvTypeOf(x.info, call), "wire", "Reader") {
				return WireOp{Kind: kind, Ref: name == "BytesRef", Pos: call.Pos()}, true
			}
			if name == "UnmarshalWire" {
				if msg, ok := nestedMsgKind(x.info, call, "wire", "Reader"); ok {
					return WireOp{Kind: msg, Pos: call.Pos()}, true
				}
			}
		}
	}
	// Package-level helper-pair calls: meta.PutExtents(b, ...) / GetExtents(r).
	if pkgPath, fnName, ok := pkgFuncCall(x.info, call); ok && pkgPath != "" {
		prefix := "Put"
		if x.mode == wireDecode {
			prefix = "Get"
		}
		if suffix, found := strings.CutPrefix(fnName, prefix); found && suffix != "" {
			if obj := calleeOf(x.info, call); obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					sig, _ := fn.Type().(*types.Signature)
					want := "Buffer"
					if x.mode == wireDecode {
						want = "Reader"
					}
					if sig != nil && sigHasParam(sig, "wire", want) && fn.Pkg() != nil {
						return WireOp{Kind: "fn:" + fn.Pkg().Name() + "." + suffix, Pos: call.Pos()}, true
					}
				}
			}
		}
	}
	return WireOp{}, false
}

// nestedMsgKind classifies m.Sub.MarshalWire(b) / m.Sub.UnmarshalWire(r) as a
// nested message op, verifying the method really takes the codec type.
func nestedMsgKind(info *types.Info, call *ast.CallExpr, wirePkg, wireType string) (string, bool) {
	obj := calleeOf(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !sigHasParam(sig, wirePkg, wireType) {
		return "", false
	}
	n := namedOrigin(sig.Recv().Type())
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return "", false
	}
	return "msg:" + n.Obj().Pkg().Name() + "." + n.Obj().Name(), true
}

// condChecksRemaining reports whether cond contains an r.Remaining() call on
// a wire.Reader — the guard that makes a trailing optional evolvable.
func condChecksRemaining(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Remaining" && isNamedType(recvTypeOf(info, call), "wire", "Reader") {
			found = true
			return false
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Lockfile rendering.

// RenderWireSchemas serializes schemas (from any number of packages) into the
// deterministic lockfile text `-wireschema` diffs against. Lines are sorted
// by qualified name; each renders the encoder sequence (decoder for
// one-sided decode pairs — wiresym separately enforces the two agree).
func RenderWireSchemas(schemas []*MessageSchema, protoVersion string) string {
	var b strings.Builder
	b.WriteString("# Wire-schema lockfile. Regenerate with `redbud-lint -wireschema -update`.\n")
	b.WriteString("# A diff here means the frame layout changed: if the change is visible on\n")
	b.WriteString("# the wire, bump proto.ProtoVersion (and gate the new fields) before\n")
	b.WriteString("# regenerating. Do not edit by hand.\n")
	fmt.Fprintf(&b, "protocol-version = %s\n\n", protoVersion)

	lines := make([]string, 0, len(schemas))
	for _, s := range schemas {
		ops := s.Enc
		if !s.HasEnc {
			ops = s.Dec
		}
		rendered := renderWireOps(ops)
		if rendered == "" {
			// Keep empty sequences visible and the line free of trailing
			// whitespace an editor might strip.
			rendered = "(empty)"
		}
		lines = append(lines, fmt.Sprintf("%s.%s = %s", s.PkgPath, s.DisplayName(), rendered))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}
