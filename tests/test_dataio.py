import numpy as np
import pytest

from streamlabel import (DatasetBundle, DatasetFormatError, load_dataset,
                         normalize_apply, normalize_fit, split, take_rows)

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


def test_arff_rejects_sparse_rows(tmp_path):
    path = tmp_path / "s.arff"
    path.write_text("@relation s\n@attribute a numeric\n@attribute l {0,1}\n"
                    "@data\n{0 1.0, 1 1}\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="sparse"):
        load_dataset(path, format="arff", label_spec=1)


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
    sub = take_rows(bundle, [5, 1])
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
    out = normalize_apply(stats, bundle)
    assert out.X[:, 0].tolist() == [0.0, 0.5, 1.0]
    # constant column maps to zero everywhere
    assert out.X[:, 1].tolist() == [0.0, 0.0, 0.0]


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
    out = normalize_apply(stats, test)
    assert out.X[:, 0].tolist() == [1.2, -0.5]


def test_normalize_matches_per_feature_formula():
    bundle = synthetic_bundle(15, 4, 2, seed=7)
    stats = normalize_fit(bundle)
    out = normalize_apply(stats, bundle)
    for j in range(4):
        col = bundle.X[:, j]
        span = col.max() - col.min()
        want = (col - col.min()) / span
        assert np.array_equal(out.X[:, j], want)


def test_normalize_feature_count_check():
    bundle = synthetic_bundle(5, 3, 2, seed=8)
    other = synthetic_bundle(5, 4, 2, seed=9)
    with pytest.raises(ValueError):
        normalize_apply(normalize_fit(bundle), other)



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
        got = normalize_apply(stats, bundle).X
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert np.all(normalize_apply(stats, test).X[:, 2] == 0.0)
