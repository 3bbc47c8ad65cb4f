package opt

// The abstract Qat register lattice of the energy rewrite pass. A
// register's abstract value is one of the channel functions the init
// instructions can produce — the constant fills Zero/One and the Hadamard
// pattern Had(k) on channel bit k with its complement NHad(k) — or Unknown.
// The transfer functions fold the bitwise gates over these states exactly,
// so the energy pass can prove that a write is redundant (or reversible).

// QKind enumerates the abstract states.
type QKind uint8

const (
	// QUnknown is the lattice top: no structural fact is known.
	QUnknown QKind = iota
	// QZero and QOne are the constant channel functions.
	QZero
	QOne
	// QHad is the Hadamard pattern on channel bit K; QNHad its complement.
	QHad
	QNHad
)

// QState is one register's abstract value; the zero value is Unknown.
type QState struct {
	Kind QKind
	// K is the channel bit of QHad/QNHad states; meaningless otherwise.
	K uint8
}

// IsConst reports a constant fill (Zero or One).
func (s QState) IsConst() bool { return s.Kind == QZero || s.Kind == QOne }

// QInvert is the abstract not gate.
func QInvert(s QState) QState {
	switch s.Kind {
	case QZero:
		return QState{Kind: QOne}
	case QOne:
		return QState{Kind: QZero}
	case QHad:
		return QState{Kind: QNHad, K: s.K}
	case QNHad:
		return QState{Kind: QHad, K: s.K}
	}
	return QState{}
}

// QAnd/QOr/QXor fold two known channel functions; unknown operands yield
// unknown results except where one operand forces the output.
func QAnd(a, b QState) QState {
	switch {
	case a.Kind == QZero || b.Kind == QZero:
		return QState{Kind: QZero}
	case a.Kind == QOne:
		return b
	case b.Kind == QOne:
		return a
	case a.Kind == QUnknown || b.Kind == QUnknown:
		return QState{}
	case a == b:
		return a
	case a.K == b.K: // Had(k) & NHad(k)
		return QState{Kind: QZero}
	}
	return QState{}
}

func QOr(a, b QState) QState {
	switch {
	case a.Kind == QOne || b.Kind == QOne:
		return QState{Kind: QOne}
	case a.Kind == QZero:
		return b
	case b.Kind == QZero:
		return a
	case a.Kind == QUnknown || b.Kind == QUnknown:
		return QState{}
	case a == b:
		return a
	case a.K == b.K: // Had(k) | NHad(k)
		return QState{Kind: QOne}
	}
	return QState{}
}

func QXor(a, b QState) QState {
	switch {
	case a.Kind == QUnknown || b.Kind == QUnknown:
		return QState{}
	case a.Kind == QZero:
		return b
	case b.Kind == QZero:
		return a
	case a.Kind == QOne:
		return QInvert(b)
	case b.Kind == QOne:
		return QInvert(a)
	case a == b:
		return QState{Kind: QZero}
	case a.K == b.K: // Had(k) ^ NHad(k)
		return QState{Kind: QOne}
	}
	return QState{}
}
