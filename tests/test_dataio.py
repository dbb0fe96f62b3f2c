import re

import numpy as np
import pytest
from scipy.io import arff

from streamlabel import (DatasetBundle, DatasetFormatError, load_dataset,
                         normalize_fit, split)
from streamlabel.dataio import _normalize_rows, _take_rows

from conftest import synthetic_bundle


def test_csv_three_row_fixture(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text("a,b,l1,l2\n"
                    "1.0,2.0,1,0\n"
                    "3.0,4.0,0,0\n"
                    "5.0,6.0,1,1\n", encoding="utf-8")
    bundle = load_dataset(path, format="csv", label_spec=2)
    assert bundle.n_samples == 3
    assert bundle.n_features == 2
    assert bundle.m == 2
    assert np.array_equal(bundle.X, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert bundle.labelsets == (frozenset({0}), frozenset(), frozenset({0, 1}))
    assert bundle.feature_names == ("a", "b")
    assert bundle.label_names == ("l1", "l2")


def test_csv_non_numeric_token_cites_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,l1\n"
                    "1.0,2.0,3.0,1\n"
                    "4.0,5.0,oops,0\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"row 2, column 3"):
        load_dataset(path, format="csv", label_spec=1)


def test_label_must_be_zero_or_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,l1\n1.0,2\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="not 0/1"):
        load_dataset(path, format="csv", label_spec=1)


def test_csv_field_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,l1\n1.0,2.0,1\n3.0,0\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_dataset(path, format="csv", label_spec=1)


def test_csv_alternate_delimiter(tmp_path):
    path = tmp_path / "mini.tsv"
    path.write_text("a\tl1\n0.5\t1\n1.5\t0\n", encoding="utf-8")
    bundle = load_dataset(path, format="csv", label_spec=1, delimiter="\t")
    assert bundle.X[:, 0].tolist() == [0.5, 1.5]


def test_arff_full_parse(tiny_arff):
    bundle = load_dataset(tiny_arff, format="arff", label_spec=2)
    assert bundle.n_samples == 4
    assert bundle.feature_names == ("width", "height", "color")
    assert bundle.label_names == ("is_big", "is_red")
    # nominal codes follow declaration order: red=0, green=1, blue=2
    assert bundle.X[:, 2].tolist() == [0.0, 1.0, 2.0, 0.0]
    assert bundle.labelsets == (frozenset({1}), frozenset({0}),
                                frozenset({0, 1}), frozenset())


def test_arff_load_deterministic(tiny_arff):
    a = load_dataset(tiny_arff, format="arff", label_spec=2)
    b = load_dataset(tiny_arff, format="arff", label_spec=2)
    assert np.array_equal(a.X, b.X)
    assert a.labelsets == b.labelsets
    assert a.label_names == b.label_names


def test_arff_quoted_attribute_names(tmp_path):
    path = tmp_path / "q.arff"
    path.write_text("@relation q\n"
                    "@attribute 'my feature' numeric\n"
                    "@attribute lab {0,1}\n"
                    "@data\n"
                    "1.5,1\n", encoding="utf-8")
    bundle = load_dataset(path, format="arff", label_spec=1)
    assert bundle.feature_names == ("my feature",)


_TWIN_HEADER = ("@relation t\n"
                "@attribute a numeric\n"
                "@attribute shade {'light, blue',red}\n"
                "@attribute b numeric\n"
                "@attribute l1 {0,1}\n"
                "@attribute l2 {0,1}\n"
                "@data\n")


def test_arff_sparse_rows_load_as_their_dense_twin(tmp_path):
    # an omitted numeric cell is 0, an omitted nominal cell its first value
    dense = tmp_path / "dense.arff"
    dense.write_text(_TWIN_HEADER
                     + "0.5,'light, blue',0,1,0\n"
                     + "0,red,2.5,0,1\n"
                     + "0,'light, blue',0,0,0\n"
                     + "1e-3,red,true,1,1\n", encoding="utf-8")
    sparse = tmp_path / "sparse.arff"
    sparse.write_text(_TWIN_HEADER
                      + "{0 0.5,3 1}\n"
                      + "{ 1 red , 2\t2.5, 4 1 }\n"
                      + "{}\n"
                      + "% a dense row may sit among sparse ones\n"
                      + "1e-3,red,true,1,1\n", encoding="utf-8")
    want = load_dataset(dense, "arff", 2)
    got = load_dataset(sparse, "arff", 2)
    assert np.array_equal(got.X, want.X)
    assert got.X.tolist() == [[0.5, 0.0, 0.0], [0.0, 1.0, 2.5],
                              [0.0, 0.0, 0.0], [0.001, 1.0, 1.0]]
    assert got.labelsets == want.labelsets
    assert (got.feature_names, got.label_names, got.m) == (
        want.feature_names, want.label_names, want.m)
    quoted = tmp_path / "quoted.arff"
    quoted.write_text(_TWIN_HEADER + "{0 0.5, 1 'light, blue', 3 '1'}\n",
                      encoding="utf-8")
    assert load_dataset(quoted, "arff", 2).X.tolist() == [[0.5, 0.0, 0.0]]


@pytest.mark.parametrize("row,match", [
    ("{0 1, x 2}", "sparse index 'x' is not an integer"),
    ("{0 1, 1.0 red}", "sparse index '1.0' is not an integer"),
    ("{0 1, 5 1}", "sparse index 5 is out of range for 5 columns"),
    ("{-1 1}", "sparse index -1 is out of range for 5 columns"),
    ("{2 1, 0 1}", "sparse index 0 does not follow 2"),
    ("{3 1, 3 1}", "sparse index 3 does not follow 3"),
    ("{0 1, 3}", "sparse index 3 has no value"),
    ("{0 1, 1 'red}", "malformed sparse pair"),
    ("{0 1, , 3 1}", "malformed sparse pair"),
    ("{0 1, 3 1", "sparse row has no closing brace"),
], ids=["word", "decimal", "past-end", "negative", "decreasing", "repeated",
        "no-value", "open-quote", "empty-pair", "no-brace"])
def test_arff_bad_sparse_rows_cite_the_line(tmp_path, row, match):
    path = tmp_path / "s.arff"
    path.write_text(_TWIN_HEADER + "{0 1}\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"line 9 (data row 2): {match}")):
        load_dataset(path, format="arff", label_spec=2)


def test_arff_field_count_cites_line_and_row(tmp_path):
    path = tmp_path / "f.arff"
    path.write_text("@relation f\n@attribute a numeric\n@attribute l {0,1}\n"
                    "@data\n1.0,1\n2.0\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"line 6 \(data row 2\)"):
        load_dataset(path, format="arff", label_spec=1)


def test_arff_requires_data_section(tmp_path):
    path = tmp_path / "n.arff"
    path.write_text("@relation n\n@attribute a numeric\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="@data"):
        load_dataset(path, format="arff", label_spec=1)


def test_arff_unsupported_attribute_type(tmp_path):
    path = tmp_path / "d.arff"
    path.write_text("@relation d\n@attribute when date\n@data\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="unsupported attribute type"):
        load_dataset(path, format="arff", label_spec=1)


def test_arff_undeclared_nominal_value(tmp_path):
    path = tmp_path / "u.arff"
    path.write_text("@relation u\n@attribute c {x,y}\n@attribute l {0,1}\n"
                    "@data\nz,1\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="declared categories"):
        load_dataset(path, format="arff", label_spec=1)


@pytest.mark.parametrize("header,match", [
    ("@attribute 'my feature numeric\n",
     "line 2: unterminated quoted name"),
    ("@attribute lonely\n", "line 2: malformed attribute declaration"),
    ("@attribute c {x,y\n", "line 2: unterminated nominal value list"),
    ("@attribute c {'x,y}\n", "line 2: malformed quoted field"),
    ("", "line 2: @data before any @attribute"),
    ("@attribute a numeric\n@atribute l {0,1}\n",
     "line 3: unrecognized header line '@atribute l {0,1}'"),
], ids=["quoted-name", "attribute", "nominal-list", "nominal-quote",
        "data-first", "unknown-line"])
def test_arff_header_errors_cite_the_line(tmp_path, header, match):
    path = tmp_path / "h.arff"
    path.write_text("@relation h\n" + header + "@data\n1.0,1\n",
                    encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(match)):
        load_dataset(path, format="arff", label_spec=1)


def test_arff_quoted_nominal_values(tmp_path):
    path = tmp_path / "q.arff"
    path.write_text("@relation q\n"
                    "@attribute shade {'light blue', \"dark red\", green}\n"
                    "@attribute l {0,1}\n"
                    "@data\n"
                    "'dark red',1\n"
                    "green,0\n"
                    "'light blue',1\n", encoding="utf-8")
    bundle = load_dataset(path, format="arff", label_spec=1)
    assert bundle.X[:, 0].tolist() == [1.0, 2.0, 0.0]


def test_arff_quoted_values_may_hold_commas(tmp_path):
    path = tmp_path / "c.arff"
    path.write_text("@relation c\n"
                    "@attribute w numeric\n"
                    "@attribute color {'light, blue',red, \"dark, red\"}\n"
                    "@attribute l {0,1}\n"
                    "@data\n"
                    "0.5,'light, blue',1\n"
                    "0.25, \"dark, red\" ,0\n"
                    "1,red,'1'\n", encoding="utf-8")
    bundle = load_dataset(path, format="arff", label_spec=1)
    assert bundle.X.tolist() == [[0.5, 0.0], [0.25, 2.0], [1.0, 1.0]]
    assert bundle.labelsets == (frozenset({0}), frozenset(), frozenset({0}))


@pytest.mark.parametrize("row", ["'x,1", "'x' y,1", "x , " * 40 + "'x"],
                         ids=["unterminated", "text-after-quote",
                              "many-fields"])
def test_arff_malformed_quoted_cells_cite_the_line(tmp_path, row):
    path = tmp_path / "m.arff"
    path.write_text("@relation m\n@attribute c {x,y}\n@attribute l {0,1}\n"
                    "@data\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=re.escape("line 5 (data row 1): malformed "
                                       "quoted field")):
        load_dataset(path, format="arff", label_spec=1)


def test_true_and_false_cells_read_as_one_and_zero(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("a,b,l1,l2\n"
                    "true,0.5,False,TRUE\n"
                    "FALSE,True,true,false\n", encoding="utf-8")
    bundle = load_dataset(path, format="csv", label_spec=2)
    assert bundle.X.tolist() == [[1.0, 0.5], [0.0, 1.0]]
    assert bundle.labelsets == (frozenset({1}), frozenset({0}))


@pytest.mark.parametrize("row,match", [
    ("nan,1", "data row 1, column 1: non-finite feature value"),
    ("1e400,1", "data row 1, column 1: non-finite feature value"),
    ("1.0,yes", "data row 1, column 2: label value 'yes' is not 0/1"),
    ("oops,1", "data row 1, column 1: non-numeric feature token 'oops'"),
    ("1.0,nan", "data row 1, column 2: label value 'nan' is not 0/1"),
    ("1.0,yes\noops,1", "data row 1, column 2: label value 'yes' is not 0/1"),
    ("1.0,1\ninf,yes", "data row 2, column 1: non-finite feature value"),
], ids=["nan", "overflow", "label-token", "feature-token", "label-nan",
        "rows-in-order", "features-first"])
def test_bad_cells_cite_their_position(tmp_path, row, match):
    path = tmp_path / "c.csv"
    path.write_text("a,l1\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(match)):
        load_dataset(path, format="csv", label_spec=1)


@pytest.mark.parametrize("name,text,fmt,match", [
    ("h.csv", "a,l1\n", "csv",
     "need a header row and at least one data row"),
    ("e.arff", "@relation e\n@attribute a numeric\n@attribute l {0,1}\n"
               "@data\n% nothing follows\n", "arff", "no data rows"),
], ids=["csv-header-only", "arff-no-rows"])
def test_a_file_without_rows_is_rejected(tmp_path, name, text, fmt, match):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=match):
        load_dataset(path, format=fmt, label_spec=1)


@pytest.mark.parametrize("spec,sidecar,match", [
    (["width", "height", "color", "is_big", "is_red"], None,
     "label_spec leaves no feature columns"),
    (True, None, "label_spec must be a count >= 1, a path or a non-empty "
                 "list of names, got True"),
    ([], None, "label_spec must be a count >= 1, a path or a non-empty "
               r"list of names, got \[\]"),
    ("labels.xml", "<labels><label name='is_big'></labels>",
     "labels.xml: invalid XML"),
    ("labels.xml", "<labels><column name='is_big'/><label/></labels>",
     r"labels.xml: no <label name=\.\.\.> entries found"),
    ("labels.txt", "# only\n\n# comments\n",
     "labels.txt: no label names found"),
], ids=["no-features", "bool", "empty-list", "xml-invalid", "xml-no-labels",
        "txt-comments-only"])
def test_label_spec_errors(tiny_arff, tmp_path, spec, sidecar, match):
    if sidecar is not None:
        (tmp_path / spec).write_text(sidecar, encoding="utf-8")
        spec = str(tmp_path / spec)
    with pytest.raises(DatasetFormatError, match=match):
        load_dataset(tiny_arff, format="arff", label_spec=spec)


def test_label_spec_name_list_follows_file_order(tiny_arff):
    # the list is unordered input: column order in the file wins
    bundle = load_dataset(tiny_arff, format="arff",
                          label_spec=["is_red", "is_big"])
    assert bundle.label_names == ("is_big", "is_red")


def test_label_spec_sidecar_txt(tiny_arff, tmp_path):
    sidecar = tmp_path / "labels.txt"
    sidecar.write_text("# labels\nis_big\nis_red\n", encoding="utf-8")
    bundle = load_dataset(tiny_arff, format="arff", label_spec=str(sidecar))
    assert bundle.label_names == ("is_big", "is_red")
    assert bundle.feature_names == ("width", "height", "color")


def test_label_spec_sidecar_xml(tiny_arff, tmp_path):
    sidecar = tmp_path / "labels.xml"
    sidecar.write_text('<labels xmlns="http://example.org/labels">\n'
                       '  <label name="is_big"></label>\n'
                       '  <label name="is_red"></label>\n'
                       "</labels>\n", encoding="utf-8")
    bundle = load_dataset(tiny_arff, format="arff", label_spec=str(sidecar))
    assert bundle.label_names == ("is_big", "is_red")


def test_label_spec_unknown_name(tiny_arff):
    with pytest.raises(DatasetFormatError, match="nope"):
        load_dataset(tiny_arff, format="arff", label_spec=["nope"])


def test_label_spec_required(tiny_arff):
    with pytest.raises(DatasetFormatError, match="label_spec"):
        load_dataset(tiny_arff, format="arff")


def test_label_spec_count_may_be_a_numpy_integer(tiny_arff):
    want = load_dataset(tiny_arff, "arff", 2)
    for count in (np.int64(2), np.uint8(2)):
        got = load_dataset(tiny_arff, "arff", count)
        assert got.label_names == want.label_names == ("is_big", "is_red")
        assert got.labelsets == want.labelsets
        assert np.array_equal(got.X, want.X)


def test_label_spec_count_out_of_range(tiny_arff):
    with pytest.raises(DatasetFormatError):
        load_dataset(tiny_arff, format="arff", label_spec=9)


def test_unknown_format(tiny_arff):
    with pytest.raises(DatasetFormatError, match="format"):
        load_dataset(tiny_arff, format="parquet", label_spec=1)


def test_features_are_read_only(tiny_arff):
    bundle = load_dataset(tiny_arff, format="arff", label_spec=2)
    with pytest.raises(ValueError):
        bundle.X[0, 0] = 99.0


def test_split_file_order():
    bundle = synthetic_bundle(10, 3, 2, seed=0)
    train, test = split(bundle, 7)
    assert train.n_samples == 7
    assert test.n_samples == 3
    assert np.array_equal(train.X, bundle.X[:7])
    assert np.array_equal(test.X, bundle.X[7:])
    assert test.labelsets == bundle.labelsets[7:]
    for part in (train, test):
        assert not np.shares_memory(part.X, bundle.X)
        assert not part.X.flags.writeable


def test_split_boundary():
    bundle = synthetic_bundle(10, 3, 2, seed=1)
    _, test = split(bundle, 9)
    assert test.n_samples == 1


def test_split_concat_round_trip():
    bundle = synthetic_bundle(12, 4, 3, seed=2)
    train, test = split(bundle, 5)
    assert np.array_equal(np.vstack([train.X, test.X]), bundle.X)
    assert train.labelsets + test.labelsets == bundle.labelsets


def test_split_rejects_degenerate():
    bundle = synthetic_bundle(10, 3, 2, seed=3)
    for bad in (0, 10, -1, 11):
        with pytest.raises(ValueError):
            split(bundle, bad)


def test_take_rows_subset_and_order():
    bundle = synthetic_bundle(8, 2, 2, seed=6)
    sub = _take_rows(bundle, [5, 1])
    assert np.array_equal(sub.X, bundle.X[[5, 1]])
    assert not np.shares_memory(sub.X, bundle.X)
    assert not sub.X.flags.writeable
    assert sub.labelsets == (bundle.labelsets[5], bundle.labelsets[1])


def test_normalize_affine_map():
    X = np.array([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]])
    bundle = DatasetBundle(X=X, labelsets=(frozenset(),) * 3, m=1,
                           feature_names=("a", "b"), label_names=("l",),
                           source="inline")
    stats = normalize_fit(bundle)
    out = _normalize_rows(stats, bundle.X)
    assert out[:, 0].tolist() == [0.0, 0.5, 1.0]
    # constant column maps to zero everywhere
    assert out[:, 1].tolist() == [0.0, 0.0, 0.0]


def test_normalize_unclamped_extrapolation():
    train = DatasetBundle(X=np.array([[0.0], [10.0]]),
                          labelsets=(frozenset(),) * 2, m=1,
                          feature_names=("a",), label_names=("l",),
                          source="inline")
    stats = normalize_fit(train)
    test = DatasetBundle(X=np.array([[12.0], [-5.0]]),
                         labelsets=(frozenset(),) * 2, m=1,
                         feature_names=("a",), label_names=("l",),
                         source="inline")
    out = _normalize_rows(stats, test.X)
    assert out[:, 0].tolist() == [1.2, -0.5]


def test_normalize_matches_per_feature_formula():
    bundle = synthetic_bundle(15, 4, 2, seed=7)
    stats = normalize_fit(bundle)
    out = _normalize_rows(stats, bundle.X)
    for j in range(4):
        col = bundle.X[:, j]
        span = col.max() - col.min()
        want = (col - col.min()) / span
        assert np.array_equal(out[:, j], want)


def test_normalize_feature_count_check():
    bundle = synthetic_bundle(5, 3, 2, seed=8)
    other = synthetic_bundle(5, 4, 2, seed=9)
    with pytest.raises(ValueError, match="cover 3 features, rows have 4"):
        _normalize_rows(normalize_fit(bundle), other.X)



def test_normalize_bits_match_two_step_formula():
    # one allocation (subtract, then divide in place) gives the bits of
    # (X - min) / span, with the zero-span column set to 0
    train = synthetic_bundle(300, 5, 2, seed=10)
    X = train.X.copy()
    X[:, 2] = 3.25
    train = DatasetBundle(X=X, labelsets=train.labelsets, m=2,
                          feature_names=train.feature_names,
                          label_names=train.label_names, source="inline")
    test = synthetic_bundle(200, 5, 2, seed=11)
    stats = normalize_fit(train)
    span = stats.max_ - stats.min_
    for bundle in (train, test):
        want = (bundle.X - stats.min_) / np.where(span > 0.0, span, 1.0)
        want[:, span == 0.0] = 0.0
        got = _normalize_rows(stats, bundle.X)
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, bundle.X)
    assert np.all(_normalize_rows(stats, test.X)[:, 2] == 0.0)


def test_dense_arff_matches_the_scipy_reader(tmp_path):
    # a differential oracle: scipy.io.arff reads dense files (not sparse
    # rows), so a planted yeast-shaped file must load with the same feature
    # bits and label sets. Cells mix full-precision, short, exponent and
    # integer spellings of signed reals
    rng = np.random.default_rng(61)
    n, d, m = 300, 103, 14
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-4, 5, size=d)
    Y = rng.random((n, m)) < 0.3
    spell = (repr, "{:.6g}".format, "{:.3e}".format, lambda v: str(round(v)))
    lines = ["@relation yeastlike"]
    lines += [f"@attribute f{j} numeric" for j in range(d)]
    lines += [f"@attribute l{j} {{0,1}}" for j in range(m)]
    lines.append("@data")
    for x, y in zip(X.tolist(), Y):
        cells = [spell[j % 4](v) for j, v in enumerate(x)]
        lines.append(",".join(cells + ["1" if b else "0" for b in y]))
    path = tmp_path / "yeastlike.arff"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bundle = load_dataset(path, format="arff", label_spec=m)
    data, _ = arff.loadarff(path)
    want_X = np.column_stack([data[f"f{j}"] for j in range(d)])
    want_sets = tuple(frozenset(j for j in range(m) if row[d + j] == b"1")
                      for row in data)
    assert bundle.X.dtype == want_X.dtype == np.float64
    assert np.array_equal(bundle.X, want_X)
    assert bundle.labelsets == want_sets
