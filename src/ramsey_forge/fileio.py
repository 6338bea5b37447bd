"""Serialization: edge lists, graph6 and edge colorings.

Every decoder raises ParseError with a line and column; encode/decode are
exact inverses for each format.
"""

from __future__ import annotations

from .graphs import RED, EdgeColoring, Graph

FORMAT_EDGELIST = "edgelist"
FORMAT_GRAPH6 = "graph6"
FORMAT_COLORING = "coloring"

FORMATS = (FORMAT_EDGELIST, FORMAT_GRAPH6, FORMAT_COLORING)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _parse_int(token: str, line: int, column: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line, column) from None


def _header(lines: list[str]) -> tuple[int, int]:
    if not lines:
        raise ParseError("empty input", 1, 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", 1, 1)
    return _parse_int(head[0], 1, 1), _parse_int(head[1], 1, len(head[0]) + 2)


def encode_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def decode_edgelist(text: str) -> Graph:
    lines = text.splitlines()
    n, m = _header(lines)
    edges = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", i, 1)
        u = _parse_int(parts[0], i, 1)
        v = _parse_int(parts[1], i, len(parts[0]) + 2)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", 1, 1)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None


def encode_graph6(g: Graph) -> str:
    """Standard graph6 line for n < 63 vertices."""
    if g.n >= 63:
        raise ValueError("graph6 support is limited to n < 63")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.adj[u] >> v & 1 else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value << 1 | b
        out.append(chr(value + 63))
    return "".join(out) + "\n"


def decode_graph6(text: str) -> Graph:
    line = text.strip()
    if not line:
        raise ParseError("empty graph6 input", 1, 1)
    n = ord(line[0]) - 63
    if not 0 <= n < 63:
        raise ParseError(f"unsupported graph6 size byte {line[0]!r}", 1, 1)
    need = (n * (n - 1) // 2 + 5) // 6
    body = line[1:]
    if len(body) != need:
        raise ParseError(f"expected {need} payload bytes, got {len(body)}", 1, 2)
    bits = []
    for i, ch in enumerate(body):
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ParseError(f"invalid graph6 byte {ch!r}", 1, i + 2)
        bits += [(value >> k) & 1 for k in range(5, -1, -1)]
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def encode_coloring(c: EdgeColoring) -> str:
    g = c.host
    lines = [f"{g.n} {g.edge_count()}"]
    for u, v in g.edges():
        tag = "R" if c.color_of(u, v) == RED else "B"
        lines.append(f"{u} {v} {tag}")
    return "\n".join(lines) + "\n"


def decode_coloring(text: str) -> EdgeColoring:
    lines = text.splitlines()
    n, m = _header(lines)
    edges = []
    red = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("colored edge line must be 'u v R|B'", i, 1)
        u = _parse_int(parts[0], i, 1)
        v = _parse_int(parts[1], i, len(parts[0]) + 2)
        if parts[2] not in ("R", "B"):
            raise ParseError(
                f"color must be R or B, got {parts[2]!r}",
                i,
                len(parts[0]) + len(parts[1]) + 3,
            )
        edges.append((u, v))
        if parts[2] == "R":
            red.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", 1, 1)
    try:
        host = Graph(n, edges)
        return EdgeColoring(host, red)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None


# format -> (type it holds, encoder, decoder)
_CODECS = {
    FORMAT_EDGELIST: (Graph, encode_edgelist, decode_edgelist),
    FORMAT_GRAPH6: (Graph, encode_graph6, decode_graph6),
    FORMAT_COLORING: (EdgeColoring, encode_coloring, decode_coloring),
}


def encode(obj: object, fmt: str) -> str:
    if fmt not in _CODECS:
        raise ValueError(f"unknown format {fmt!r} (known: {FORMATS})")
    kind, encoder, _ = _CODECS[fmt]
    if not isinstance(obj, kind):
        raise ValueError(f"format {fmt} holds {kind.__name__} objects, not {type(obj).__name__}")
    return encoder(obj)


def decode(text: str, fmt: str) -> object:
    if fmt not in _CODECS:
        raise ValueError(f"unknown format {fmt!r} (known: {FORMATS})")
    return _CODECS[fmt][2](text)


def read_path(path: str, fmt: str) -> object:
    with open(path, "r", encoding="ascii") as fh:
        return decode(fh.read(), fmt)


def write_path(path: str, obj: object, fmt: str) -> None:
    text = encode(obj, fmt)  # before the file is opened: a refused object writes nothing
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
