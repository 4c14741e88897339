// Package token defines the lexical tokens of the Green-Marl subset
// implemented by this compiler, plus source positions shared by the
// lexer, parser, and diagnostics.
package token

import "fmt"

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT    // pagerank
	INTLIT   // 42
	FLOATLIT // 0.85
	STRINGLIT

	// Punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	LT        // <
	GT        // >
	LE        // <=
	GE        // >=
	EQ        // ==
	NEQ       // !=
	ASSIGN    // =
	PLUS      // +
	MINUS     // -
	STAR      // *
	SLASH     // /
	PERCENT   // %
	NOT       // !
	AND       // &&
	OR        // ||
	QUESTION  // ?
	COLON     // :
	SEMICOLON // ;
	COMMA     // ,
	DOT       // .
	AT        // @
	PLUSEQ    // +=
	MINUSEQ   // -=
	STAREQ    // *=
	ANDEQ     // &=  (boolean and-reduce)
	OREQ      // |=  (boolean or-reduce)
	MINEQ     // min=
	MAXEQ     // max=
	PLUSPLUS  // ++

	// Keywords.
	KwProcedure
	KwLocal
	KwGraph
	KwNode
	KwEdge
	KwNodeProp
	KwEdgeProp
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwBool
	KwForeach
	KwFor
	KwIf
	KwElse
	KwWhile
	KwDo
	KwReturn
	KwInBFS
	KwInReverse
	KwFrom
	KwSum
	KwProduct
	KwCount
	KwMax
	KwMin
	KwAvg
	KwExist
	KwAll
	KwTrue
	KwFalse
	KwInf
	KwNil
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INTLIT: "INT",
	FLOATLIT: "FLOAT", STRINGLIT: "STRING",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACKET: "[", RBRACKET: "]",
	LT: "<", GT: ">", LE: "<=", GE: ">=", EQ: "==", NEQ: "!=",
	ASSIGN: "=", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/",
	PERCENT: "%", NOT: "!", AND: "&&", OR: "||", QUESTION: "?",
	COLON: ":", SEMICOLON: ";", COMMA: ",", DOT: ".", AT: "@",
	PLUSEQ: "+=", MINUSEQ: "-=", STAREQ: "*=", ANDEQ: "&=", OREQ: "|=",
	MINEQ: "min=", MAXEQ: "max=", PLUSPLUS: "++",
	KwProcedure: "Procedure", KwLocal: "Local", KwGraph: "Graph",
	KwNode: "Node", KwEdge: "Edge",
	KwNodeProp: "Node_Prop", KwEdgeProp: "Edge_Prop",
	KwInt: "Int", KwLong: "Long", KwFloat: "Float", KwDouble: "Double",
	KwBool: "Bool", KwForeach: "Foreach", KwFor: "For", KwIf: "If",
	KwElse: "Else", KwWhile: "While", KwDo: "Do", KwReturn: "Return",
	KwInBFS: "InBFS", KwInReverse: "InReverse", KwFrom: "From",
	KwSum: "Sum", KwProduct: "Product", KwCount: "Count", KwMax: "Max",
	KwMin: "Min", KwAvg: "Avg", KwExist: "Exist", KwAll: "All",
	KwTrue: "True", KwFalse: "False", KwInf: "INF", KwNil: "NIL",
}

// String returns the canonical spelling (or name) of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to kinds. Green-Marl keywords are
// case-sensitive with a capitalized style; common alternate spellings
// used in the paper's listings (N_P, E_P, ForEach) are accepted.
var Keywords = map[string]Kind{
	"Procedure": KwProcedure, "Proc": KwProcedure, "Local": KwLocal,
	"Graph": KwGraph, "Node": KwNode, "Edge": KwEdge,
	"Node_Prop": KwNodeProp, "N_P": KwNodeProp,
	"Edge_Prop": KwEdgeProp, "E_P": KwEdgeProp,
	"Int": KwInt, "Long": KwLong, "Float": KwFloat, "Double": KwDouble,
	"Bool":    KwBool,
	"Foreach": KwForeach, "ForEach": KwForeach, "For": KwFor,
	"If": KwIf, "Else": KwElse, "While": KwWhile, "Do": KwDo,
	"Return": KwReturn,
	"InBFS":  KwInBFS, "InReverse": KwInReverse, "From": KwFrom,
	"Sum": KwSum, "Product": KwProduct, "Count": KwCount,
	"Max": KwMax, "Min": KwMin, "Avg": KwAvg,
	"Exist": KwExist, "All": KwAll,
	"True": KwTrue, "False": KwFalse,
	"INF": KwInf, "+INF": KwInf, "NIL": KwNil,
}

// Pos is a line/column source position (both 1-based).
type Pos struct {
	Line, Col int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is one lexical token with its source position and literal text.
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, STRINGLIT:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
