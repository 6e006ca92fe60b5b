import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3doc import datasets as ds
from l3doc.errors import ConfigError, DataError

import oracles
from octahedra import octahedron_off, write_octahedra

TETRA_OFF = """OFF
4 4 0
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""

TETRA_FUSED = TETRA_OFF.replace("OFF\n4 4 0", "OFF4 4 0")


# Tokens an OFF document is made of, plus near misses.
OFF_TOKENS = st.sampled_from(["OFF", "OFF3", "0", "1", "2", "3", "4", "-1", "1.5", "1e400",
                              "nan", "x", "#", ""])
# OFF-shaped documents from those tokens.
OFF_TOKEN_DOCUMENTS = st.lists(st.lists(OFF_TOKENS, max_size=5), max_size=8).map(
    lambda rows: "\n".join(" ".join(r) for r in rows))
OFF_DOCUMENTS = st.sampled_from([TETRA_OFF, TETRA_FUSED]).map(str.encode)
# Valid OFF documents with a few bytes spliced in somewhere.
OFF_SPLICES = st.tuples(OFF_DOCUMENTS, st.binary(max_size=3), st.integers(0, 60)).map(
    lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])

ZERO_AREA_OFF = b"OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n"
# Octahedra of positive, finite area whose sampled clouds have a radius of
# about 1e-14, and one stretched so far along x that the radius overflows.
TINY_OFF = octahedron_off(0, 1e-14)
STRETCHED_OFF = octahedron_off(0, np.array([1e300, 1e-300, 1e-300]))


# Tokens of near-valid OFF documents, and the near misses a noisy document
# mixes in: tokens float() or int() reject or read differently, indices out
# of range or beyond int64, short rows and wrong counts.
GOOD_COORDS = ["0", "1", "-2.5", "1e-3", "0.30000000000000004", "-1.3856995920886337", ".5", "7."]
BAD_COORDS = ["nan", "1e400", "-inf", "1_0", "+1", "x", "0x1", "1.2.3"]
BAD_INDICES = ["-1", "1_0", "+1", "x", "1.0", str(2 ** 63), str(-2 ** 63 - 1), "9" * 30]


@st.composite
def near_valid_off(draw):
    """A valid OFF document, or a noisy one a few tokens or lines away from
    valid: polygons with 3 to 6 corners, extra vertex and face tokens (an
    int64-overflowing one included), comments, blank lines, CRLF and the
    header forms."""
    noisy = draw(st.booleans())
    n_v = draw(st.integers(0, 6))
    coord = st.sampled_from(GOOD_COORDS * 6 + BAD_COORDS if noisy else GOOD_COORDS)
    width = st.sampled_from([3] * 8 + [4, 5] + ([2] if noisy else []))
    index = st.integers(0, max(n_v - 1, 0)).map(str)
    if noisy:
        index = index | st.sampled_from(BAD_INDICES + [str(n_v)])
    lines = [" ".join(draw(coord) for _ in range(draw(width))) for _ in range(n_v)]
    n_f = draw(st.integers(0, 5))
    for _ in range(n_f):
        k = draw(st.sampled_from([3, 3, 3, 4, 5, 6] + ([2, -1, 2 ** 63] if noisy else [])))
        n_idx = max(0, min(k, 6) - draw(st.sampled_from([0] * 6 + ([1] if noisy else []))))
        toks = [str(k)] + [draw(index) for _ in range(n_idx)]
        toks += draw(st.lists(st.sampled_from(["0", "7", "-3", str(2 ** 64)] + (["x"] if noisy else [])),
                              max_size=2))
        lines.append(" ".join(toks))
    miss = st.sampled_from([0] * 8 + ([-1, 1] if noisy else []))
    header = draw(st.sampled_from(["OFF\n{} {} 0", "OFF{} {} 0", "OFF {} {} 0"]
                                  + (["OFF {} {}"] if noisy else [])))
    lines = header.format(n_v + draw(miss), n_f + draw(miss)).split("\n") + lines
    for _ in range(draw(st.integers(0, 2))):  # blank and comment lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# note", "\t"])))
    if draw(st.booleans()):  # a trailing comment
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += draw(st.sampled_from([" # 1 2 3", "#x"]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def fps_row_reduction(pts, k):
    """Farthest-point sampling from index 0 as one (n, d) reduction per pick:
    the row-major formulation whose indices the library's kernel must
    reproduce."""
    chosen = np.zeros(k, dtype=np.int64)
    dist = np.sum((pts - pts[0]) ** 2, axis=1)
    dist[0] = -1.0
    for i in range(1, k):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        dist = np.minimum(dist, np.sum((pts - pts[nxt]) ** 2, axis=1))
        dist[nxt] = -1.0
    return chosen


def parse_off_oracle(text):
    """OFF parsing one line at a time: the formulation whose meshes and
    DataError messages the library's bulk parser must reproduce."""
    if isinstance(text, bytes):
        text = ds._utf8_text(text)
    rows = [(i + 1, line.split("#", 1)[0].split()) for i, line in enumerate(text.splitlines())]
    rows = [(n, toks) for n, toks in rows if toks]
    if not rows:
        raise DataError("line 1: empty OFF document")

    def ints(lineno, toks, k):
        try:
            return [int(t) for t in toks[:k]]
        except ValueError:
            raise DataError(f"line {lineno}: expected integers, got {toks!r}") from None

    lineno, head = rows[0]
    if not head[0].startswith("OFF"):
        raise DataError(f"line {lineno}: expected OFF header, got {head[0]!r}")
    fused = head[0][3:]
    counts_toks = ([fused] if fused else []) + head[1:]
    body = rows[1:]
    if not counts_toks:  # a bare "OFF": the counts are on the next line
        if not body:
            raise DataError(f"line {lineno}: missing vertex/face counts")
        lineno, counts_toks = body[0]
        body = body[1:]
    if len(counts_toks) < 3:
        raise DataError(f"line {lineno}: expected vertex, face and edge counts, got {counts_toks!r}")
    n_v, n_f, _ = ints(lineno, counts_toks, 3)
    if n_v < 0 or n_f < 0 or len(body) < n_v + n_f:
        raise DataError(f"line {lineno}: counts {n_v} {n_f} exceed file contents")

    vertices = np.zeros((n_v, 3))
    for i in range(n_v):
        ln, toks = body[i]
        try:
            x, y, z = (float(t) for t in toks[:3])
        except ValueError:
            raise DataError(f"line {ln}: expected 3 vertex coordinates, got {toks!r}") from None
        vertices[i] = x, y, z
    bad = ~np.isfinite(vertices).all(axis=1)
    if bad.any():
        ln, toks = body[int(bad.argmax())]
        raise DataError(f"line {ln}: non-finite vertex coordinate in {toks!r}")

    faces = []
    for i in range(n_f):
        ln, toks = body[n_v + i]
        vals = ints(ln, toks, len(toks))
        k = vals[0]
        if k < 3 or len(vals) < 1 + k:
            raise DataError(f"line {ln}: face needs >= 3 vertex indices, got {toks!r}")
        idx = vals[1:1 + k]
        for j in idx:
            if not 0 <= j < n_v:
                raise DataError(f"line {ln}: face index {j} out of range [0, {n_v})")
        for a, b in zip(idx[1:], idx[2:]):  # fan triangulation
            faces.append((idx[0], a, b))
    return ds.Mesh(vertices=vertices, faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def assert_valid_mesh(mesh):
    assert mesh.vertices.dtype == np.float64 and mesh.vertices.shape[1:] == (3,)
    assert np.isfinite(mesh.vertices).all()
    assert mesh.faces.dtype == np.int64 and mesh.faces.shape[1:] == (3,)
    assert ((0 <= mesh.faces) & (mesh.faces < len(mesh.vertices))).all()


class TestParseOff:
    def test_tetrahedron_fixture(self):
        mesh = ds.parse_off(TETRA_OFF)
        assert mesh.vertices.shape == (4, 3)
        assert mesh.faces.shape == (4, 3)

    def test_fused_header_parses_identically(self):
        a, b = ds.parse_off(TETRA_OFF), ds.parse_off(TETRA_FUSED)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.faces, b.faces)

    def test_face_index_out_of_range(self):
        bad = TETRA_OFF.replace("3 1 2 3", "3 1 2 9")
        with pytest.raises(DataError, match="line 10"):
            ds.parse_off(bad)

    def test_malformed_counts(self):
        with pytest.raises(DataError, match="line 2"):
            ds.parse_off("OFF\nfour 4 0\n")

    def test_missing_header(self):
        with pytest.raises(DataError, match="line 1"):
            ds.parse_off("4 4 0\n")

    def test_quad_faces_are_fan_triangulated(self):
        quad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        mesh = ds.parse_off(quad)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_serialize_round_trip(self):
        mesh = ds.parse_off(TETRA_OFF)
        again = ds.parse_off(ds.serialize_off(mesh))
        np.testing.assert_array_equal(mesh.vertices, again.vertices)
        np.testing.assert_array_equal(mesh.faces, again.faces)

    def test_bytes_accepted(self):
        assert ds.parse_off(TETRA_OFF.encode()).vertices.shape == (4, 3)

    @pytest.mark.parametrize("coords", ["nan 0.0 0.0", "0.0 inf 0.0", "0.0 0.0 -inf"])
    def test_non_finite_vertex_names_its_line(self, coords):
        with pytest.raises(DataError, match="line 4: non-finite"):
            ds.parse_off(TETRA_OFF.replace("1.0 0.0 0.0", coords))

    def test_short_counts_line_names_its_line(self):
        with pytest.raises(DataError, match="line 2: expected vertex, face and edge counts"):
            ds.parse_off("OFF \n 0")

    def test_short_vertex_line_rejected(self):
        # A lone coordinate used to be broadcast to all three axes.
        with pytest.raises(DataError, match="line 3: expected 3 vertex coordinates"):
            ds.parse_off("OFF\n1 0 0\n1.0\n")

    def test_non_utf8_bytes_name_their_line(self):
        with pytest.raises(DataError, match="line 4: not UTF-8"):
            ds.parse_off(TETRA_OFF.encode().replace(b"1.0 0.0 0.0", b"1.0 \xff 0.0", 1))

    @pytest.mark.parametrize("header", ["OFF 3 1", "OFF3 1"])
    def test_short_header_counts_do_not_borrow_the_next_line(self, header):
        # The first vertex line used to be read as the counts.
        text = f"{header}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        with pytest.raises(DataError, match=r"^line 1: expected vertex, face and edge counts, got \['3', '1'\]$"):
            ds.parse_off(text)

    def test_bad_vertex_token_outranks_earlier_non_finite_line(self):
        text = "OFF\n3 1 0\n0 0 0\nnan 0 0\n0 x 0\n3 0 1 2\n"
        with pytest.raises(DataError, match=r"^line 5: expected 3 vertex coordinates"):
            ds.parse_off(text)

    def test_face_lines_fail_in_file_order(self):
        # Line 7's index is out of range; line 8 also holds a non-integer.
        text = "OFF\n3 3 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 3\n3 0 x 2\n"
        with pytest.raises(DataError, match=r"^line 7: face index 3 out of range \[0, 3\)$"):
            ds.parse_off(text)

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty OFF document"),
        ("# only a comment\n\n", "line 1: empty OFF document"),
        (b"\xffOFF\n", "line 1: not UTF-8 text"),
        ("4 4 0\n", "line 1: expected OFF header, got '4'"),
        ("# c\nPLY\n", "line 2: expected OFF header, got 'PLY'"),
        ("OFF\n", "line 1: missing vertex/face counts"),
        ("OFF\n# counts later\n", "line 1: missing vertex/face counts"),
        ("OFF\n3 1\n", "line 2: expected vertex, face and edge counts, got ['3', '1']"),
        ("OFF\n3 1.0 0\n", "line 2: expected integers, got ['3', '1.0', '0']"),
        ("OFF\n3 1 0\n0 0 0\n", "line 2: counts 3 1 exceed file contents"),
        ("OFF\n-1 0 0\n", "line 2: counts -1 0 exceed file contents"),
        ("OFF\n1 0 0\n1 x 0\n", "line 3: expected 3 vertex coordinates, got ['1', 'x', '0']"),
        ("OFF\r\n1 0 0\r\n\r\n1 0\r\n", "line 4: expected 3 vertex coordinates, got ['1', '0']"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 x 2\n", "line 6: expected integers, got ['3', '0', 'x', '2']"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n",
         "line 6: face needs >= 3 vertex indices, got ['2', '0', '1']"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n",
         "line 6: face needs >= 3 vertex indices, got ['4', '0', '1', '2']"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 -1 2\n", "line 6: face index -1 out of range [0, 3)"),
        ("OFF\n3 1 0\n0 0 0 # a\n# b\n1 0 0\n0 1 0\n3 0 1 3\n", "line 7: face index 3 out of range [0, 3)"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1\n",
         "line 7: face needs >= 3 vertex indices, got ['3', '0', '1']"),
    ], ids=["empty", "comments-only", "not-utf8", "no-header", "header-after-comment", "bare-header",
            "bare-header-then-comment", "two-counts", "float-count", "counts-past-end", "negative-count",
            "bad-coordinate", "crlf-short-vertex", "bad-face-index", "two-corner-face",
            "face-short-of-its-count", "negative-face-index", "comments-shift-line",
            "blank-line-shifts-line"])
    def test_bad_document_names_its_line(self, text, message):
        # Line numbers count every physical line, blank and comment lines too.
        with pytest.raises(DataError) as info:
            ds.parse_off(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("extra", [str(2 ** 63), str(-2 ** 64), "9" * 30])
    def test_extra_face_token_beyond_int64_is_ignored(self, extra):
        mesh = ds.parse_off(f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 {extra}\n")
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
        assert mesh.faces.dtype == np.int64

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(near_valid_off(), near_valid_off().map(str.encode), OFF_SPLICES, OFF_TOKEN_DOCUMENTS))
    def test_same_mesh_or_message_as_line_oracle(self, text):
        try:
            want = parse_off_oracle(text)
        except DataError as e:
            with pytest.raises(DataError) as info:
                ds.parse_off(text)
            assert str(info.value) == str(e)
            return
        got = ds.parse_off(text)
        for a, b in ((got.vertices, want.vertices), (got.faces, want.faces)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), OFF_TOKEN_DOCUMENTS))
    def test_any_text_parses_or_raises_data_error(self, text):
        try:
            mesh = ds.parse_off(text)
        except DataError:
            return
        assert_valid_mesh(mesh)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(), OFF_SPLICES))
    def test_any_bytes_parse_or_raise_data_error(self, data):
        try:
            mesh = ds.parse_off(data)
        except DataError:
            return
        assert_valid_mesh(mesh)


class TestSampleMesh:
    def test_single_triangle_containment(self):
        tri = ds.Mesh(vertices=np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 3.0, 0]]),
                      faces=np.array([[0, 1, 2]]))
        pts = ds.sample_mesh(tri, 500, seed=0)
        # barycentric coordinates w.r.t. the triangle basis stay in the simplex
        u = pts[:, 0] / 2.0
        v = pts[:, 1] / 3.0
        assert np.all(pts[:, 2] == 0)
        assert np.all(u >= -1e-12) and np.all(v >= -1e-12) and np.all(u + v <= 1 + 1e-12)

    def test_degenerate_mesh_rejected(self):
        flat = ds.Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 2]]))
        with pytest.raises(DataError):
            ds.sample_mesh(flat, 10, seed=0)

    def test_area_weighting_statistics(self):
        # areas 1 and 3: expect a 25/75 split over 10k draws (within 5 sigma)
        mesh = ds.Mesh(
            vertices=np.array([[0.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0],
                               [10.0, 0, 0], [16.0, 0, 0], [10.0, 1.0, 0]]),
            faces=np.array([[0, 1, 2], [3, 4, 5]]))
        pts = ds.sample_mesh(mesh, 10_000, seed=1)
        share_small = np.mean(pts[:, 0] < 5.0)
        sigma = np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(share_small - 0.25) < 5 * sigma


class TestFarthestPointSampling:
    def test_collinear_pair(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(ds.farthest_point_sampling(pts, 2), [0, 3])

    def test_collinear_tie_breaks_low(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(ds.farthest_point_sampling(pts, 3), [0, 3, 1])

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(17, 3))
        idx = ds.farthest_point_sampling(pts, 17)
        assert sorted(idx) == list(range(17))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DataError):
            ds.farthest_point_sampling(np.zeros((3, 2)), 4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24), st.integers(1, 7))
    def test_matches_loop_oracle(self, seed, n, d):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, d))
        k = int(rng.integers(1, n + 1))
        got = ds.farthest_point_sampling(pts, k)
        want = oracles.fps_trace(pts, k)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["normal", "grid", "duplicates"]),
           st.integers(1, 7), st.integers(-6, 6))
    def test_same_indices_as_row_reduction(self, seed, kind, d, exponent):
        rng = np.random.default_rng(seed)
        if kind == "grid":  # exact distance ties everywhere
            pts = rng.integers(-2, 3, size=(40, d)).astype(np.float64)
        elif kind == "duplicates":
            pts = rng.normal(size=(10, d))[rng.integers(0, 10, size=40)]
        else:
            pts = rng.normal(size=(40, d))
        pts *= 10.0 ** exponent
        k = int(rng.integers(1, 41))
        got = ds.farthest_point_sampling(pts, k)
        np.testing.assert_array_equal(got, fps_row_reduction(pts, k))

    def test_input_layouts_give_same_indices_and_stay_unmodified(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 3))
        keep = pts.copy()
        want = ds.farthest_point_sampling(pts, 12)
        np.testing.assert_array_equal(pts, keep)
        np.testing.assert_array_equal(ds.farthest_point_sampling(np.asfortranarray(pts), 12), want)
        np.testing.assert_array_equal(ds.farthest_point_sampling(pts[::2], 6),
                                      ds.farthest_point_sampling(pts[::2].copy(), 6))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_permutation_selects_same_geometric_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(20, 3))
        k = 6
        # Point 0 stays first, so both runs start from the same point.
        perm = np.r_[0, 1 + rng.permutation(19)]
        base = ds.farthest_point_sampling(pts, k)
        remapped = ds.farthest_point_sampling(pts[perm], k)
        got = np.sort(pts[perm][remapped], axis=0)
        want = np.sort(pts[base], axis=0)
        np.testing.assert_allclose(got, want, atol=0)


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(3)
        pts = ds.normalize_unit_sphere(rng.normal(size=(40, 3)))
        np.testing.assert_allclose(pts, ds.normalize_unit_sphere(pts), atol=1e-12)

    def test_repeated_point_rejected(self):
        with pytest.raises(DataError):
            ds.normalize_unit_sphere(np.ones((5, 3)))

    def test_radius_overflow_rejected(self):
        pts = np.array([[1e308, 0, 0], [-1e308, 0, 0], [1e308, 1, 0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DataError, match="radius overflows"):
            ds.normalize_unit_sphere(pts)

    def test_radius_is_one(self):
        rng = np.random.default_rng(4)
        pts = ds.normalize_unit_sphere(rng.normal(size=(64, 3)) * 7 + 2)
        centered = pts - pts.mean(axis=0)
        assert abs(np.linalg.norm(centered, axis=1).max() - 1.0) <= 1e-9


class TestSplitPlan:
    def test_ten_by_five(self):
        plan = ds.make_split_plan([f"c{i}" for i in range(10)], 10, 5, seed=0)
        assert len(plan.tasks) == 10
        for t in plan.tasks:
            assert len(t) == 5 and len(set(t)) == 5

    def test_reproducible(self):
        names = [f"c{i}" for i in range(10)]
        assert ds.make_split_plan(names, 4, 3, seed=9).tasks == ds.make_split_plan(names, 4, 3, seed=9).tasks

    def test_too_many_classes_rejected(self):
        with pytest.raises(ConfigError):
            ds.make_split_plan(["a", "b"], 2, 3, seed=0)

    @pytest.mark.parametrize("pool, num_tasks, per_task", [
        (["a", "b"], 0, 1), (["a", "b"], 2, 0), (["a", "b"], -1, 1), (["a", "a", "b"], 2, 2)])
    def test_bad_sizes_and_repeated_pool_rejected(self, pool, num_tasks, per_task):
        with pytest.raises(ConfigError):
            ds.make_split_plan(pool, num_tasks, per_task, seed=0)

    def test_names_are_plain_strings(self):
        plan = ds.make_split_plan(["a", "b", "c"], 3, 2, seed=1)
        assert all(type(name) is str for task in plan.tasks for name in task)


class TestTaskDataset:
    @pytest.mark.parametrize("train_shape, test_shape", [((8, 3), (8, 4)), ((8, 3), (6, 3)),
                                                         ((5, 3), (8, 3))])
    def test_clouds_of_another_shape_rejected(self, train_shape, test_shape):
        train = [(ds.PointCloud(np.zeros((8, 3))), 0), (ds.PointCloud(np.zeros(train_shape)), 1)]
        test = [(ds.PointCloud(np.zeros(test_shape)), 0)]
        with pytest.raises(DataError, match=r"task 7: point clouds disagree on shape"):
            ds.TaskDataset(7, ("a", "b"), train, test)


class TestSynthetic:
    def test_noiseless_sphere_radius(self):
        data = ds.gen_synthetic(["sphere"], per_class=4, n_pts=64, noise_sigma=0.0, seed=0)
        for cloud, _ in [*data.train, *data.test]:
            radii = np.linalg.norm(cloud.points, axis=1)
            assert np.max(np.abs(radii - 1.0)) <= 1e-9

    def test_split_arithmetic(self):
        data = ds.gen_synthetic(["cube", "plane"], per_class=10, n_pts=16, noise_sigma=0.01, seed=1)
        assert len(data.train) == 16 and len(data.test) == 4

    def test_distinct_seeds_give_distinct_jitter(self):
        a = ds.gen_synthetic(["cube"], 4, 16, 0.02, seed=1)
        b = ds.gen_synthetic(["cube"], 4, 16, 0.02, seed=2)
        assert not np.array_equal(a.train[0][0].points, b.train[0][0].points)

    def test_same_seed_reproducible(self):
        a = ds.gen_synthetic(["torus", "helix"], 4, 32, 0.01, seed=5)
        b = ds.gen_synthetic(["torus", "helix"], 4, 32, 0.01, seed=5)
        for (ca, la), (cb, lb) in zip(a.train, b.train):
            assert la == lb
            np.testing.assert_array_equal(ca.points, cb.points)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            ds.gen_synthetic(["dodecahedron"], 4, 16, 0.0, seed=0)

    @pytest.mark.parametrize("classes, n_pts", [
        (["cube", "cube"], 16), ([], 16), (["cube"], 0), (["cube"], -5)])
    def test_bad_task_rejected(self, classes, n_pts):
        with pytest.raises(ConfigError):
            ds.gen_synthetic(classes, 4, n_pts, 0.0, seed=0)

    def test_every_primitive_generates(self):
        data = ds.gen_synthetic(ds.PRIMITIVES, 2, 32, 0.0, seed=3)
        assert data.n_classes == 8
        for cloud, _ in data.train:
            assert np.all(np.isfinite(cloud.points))

    def test_classes_separable_in_pooled_radial_features(self):
        # noise-0 smoke check: max-pooled shell features feed a multiclass
        # perceptron that must reach zero training errors
        data = ds.gen_synthetic(ds.PRIMITIVES, per_class=8, n_pts=256, noise_sigma=0.0, seed=7)
        shells = np.linspace(0.0, 1.8, 10)

        def featurize(cloud):
            r = np.linalg.norm(cloud.points, axis=1, keepdims=True)
            per_point = np.concatenate([r, -r, -(r - shells) ** 2], axis=1)
            return per_point.max(axis=0)

        objs = [*data.train, *data.test]
        feats = np.stack([featurize(c) for c, _ in objs])
        labels = np.array([l for _, l in objs])
        feats = (feats - feats.mean(axis=0)) / (feats.std(axis=0) + 1e-9)
        feats = np.concatenate([feats, np.ones((len(feats), 1))], axis=1)
        w = np.zeros((8, feats.shape[1]))
        for _ in range(4000):
            errors = 0
            for x, y in zip(feats, labels):
                pred = int(np.argmax(w @ x))
                if pred != y:
                    w[y] += x
                    w[pred] -= x
                    errors += 1
            if errors == 0:
                break
        assert errors == 0


class TestFileIO:
    def test_off_files_load_through_sampling(self, tmp_path):
        (tmp_path / "tetra" / "train").mkdir(parents=True)
        (tmp_path / "tetra" / "test").mkdir(parents=True)
        (tmp_path / "tetra" / "train" / "a.off").write_text(TETRA_OFF)
        (tmp_path / "tetra" / "test" / "b.off").write_text(TETRA_OFF)
        loaded = ds.load_task_from_dir(tmp_path, ("tetra",), task_id=1, n_pts=16)
        cloud = loaded.train[0][0]
        assert cloud.points.shape == (16, 3)
        centered = cloud.points - cloud.points.mean(axis=0)
        assert abs(np.linalg.norm(centered, axis=1).max() - 1.0) <= 1e-9

    def test_off_ingestion_bits_are_fixed(self, tmp_path):
        # Seeded octahedra, sampled at 4x the requested points so that
        # farthest-point sampling picks every cloud; any change to parsing,
        # sampling, FPS or normalization shows in the digest.
        write_octahedra(tmp_path, ("a", "b"))
        task = ds.load_task_from_dir(tmp_path, ("a", "b"), task_id=1, n_pts=64, seed=[3, 301, 0])
        digest = hashlib.sha256()
        for cloud, _ in [*task.train, *task.test]:
            digest.update(cloud.points.tobytes())
        assert digest.hexdigest() == "68f9fee977ea3e8ef86a0eee9c2c746f79baaf056913390a04c6fc0629716a1f"

    def test_off_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "c" / "train" / "bad.off"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"OFF\n3 1 0\n0 0 0\n1 \xfe 1\n0 1 0\n3 0 1 2\n")
        with pytest.raises(DataError) as info:
            ds.load_task_from_dir(tmp_path, ("c",), task_id=1, n_pts=2)
        assert str(info.value) == f"{path}: line 4: not UTF-8 text"

    @pytest.mark.parametrize("name, content, message", [
        ("a.off", ZERO_AREA_OFF, "mesh surface area is 0.0"),
        ("a.off", TINY_OFF, "zero radius after centering"),
        ("a.off", b"OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "mesh has no faces"),
        ("a.off", b"OFF\n3 1 0\n0 0 0\n1e200 0 0\n0 1e200 0\n3 0 1 2\n", "mesh surface area is inf"),
        # An infinite radius used to scale the cloud to all zeros.
        ("a.off", STRETCHED_OFF, "radius overflows"),
        ("a.off", b"OFF\n", "line 1: missing vertex/face counts"),
        ("a.off", None, "cannot read"),
    ], ids=["zero-area-off", "tiny-off", "faceless-off", "huge-off", "stretched-off", "short-off",
            "directory"])
    def test_every_load_error_names_the_file_once(self, tmp_path, name, content, message):
        path = tmp_path / "c" / "train" / name
        path.parent.mkdir(parents=True)
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(DataError) as info:
            ds.load_task_from_dir(tmp_path, ("c",), task_id=1, n_pts=2)
        error = str(info.value)
        assert error.startswith(f"{path}: ") and error.count(str(path)) == 1 and message in error

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=60), OFF_SPLICES), st.integers(1, 4), st.booleans())
    def test_any_point_file_loads_or_names_itself(self, data, n_pts, normalize):
        with tempfile.TemporaryDirectory() as root:
            paths = [Path(root, "c", split, "f.off") for split in ("train", "test")]
            for path in paths:
                path.parent.mkdir(parents=True)
                path.write_bytes(data)
            try:
                task = ds.load_task_from_dir(root, ("c",), task_id=1, n_pts=n_pts, normalize=normalize)
            except DataError as e:
                assert str(e).startswith(f"{paths[0]}: ") and str(e).count(root) == 1
                return
        cloud = task.train[0][0]
        assert cloud.points.shape[0] == n_pts and np.isfinite(cloud.points).all()
        assert cloud.source == str(paths[0])

    def test_off_files_are_taken_in_sorted_order_beside_other_files(self, tmp_path):
        # Only *.off files are read, in path order within each class and
        # split, with each class's position in the task as its label.
        write_octahedra(tmp_path, ("b", "a"), train=3, test=1)
        for stray in ("notes.txt", "0.pts", "1.OFF"):
            (tmp_path / "b" / "train" / stray).write_text("not a mesh\n")
        task = ds.load_task_from_dir(tmp_path, ("b", "a"), task_id=1, n_pts=4)
        assert [(Path(c.source).relative_to(tmp_path).as_posix(), label) for c, label in task.train] == [
            ("b/train/0.off", 0), ("b/train/1.off", 0), ("b/train/2.off", 0),
            ("a/train/0.off", 1), ("a/train/1.off", 1), ("a/train/2.off", 1)]
        assert [label for _, label in task.test] == [0, 1]

    def test_missing_class_dir(self, tmp_path):
        with pytest.raises(DataError):
            ds.load_task_from_dir(tmp_path, ("ghost",), task_id=1, n_pts=8)

    @pytest.mark.parametrize("classes, n_pts", [
        (("ghost", "ghost"), 8), ((), 8), (("ghost",), 0), (("ghost",), -5)])
    def test_bad_task_rejected_before_reading(self, tmp_path, classes, n_pts):
        with pytest.raises(ConfigError):
            ds.load_task_from_dir(tmp_path, classes, task_id=1, n_pts=n_pts)
