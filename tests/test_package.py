import hardyshift


def test_export_table_has_no_duplicates_and_every_name_resolves():
    names = hardyshift.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hardyshift, name)] == []


def test_dense_algebra_is_not_part_of_the_package():
    # products, comparisons and the Toeplitz predicate for one block live
    # in the tests' dense reference (tests/helpers.py), not in src/
    import hardyshift.matrices as matrices

    assert "matrices_close" not in hardyshift.__all__
    assert "is_lower_toeplitz" not in hardyshift.__all__
    assert not {"np", "numpy"} & set(vars(matrices))
    assert not hasattr(hardyshift.DenseMatrix, "__matmul__")
    # SparseMatrix is the one operator type: it has no dense view, and
    # DenseMatrix is only a symbol's validated coefficient matrix
    assert not hasattr(hardyshift.SparseMatrix, "to_dense")
    for name in ("nonzero_items", "nnz", "rank", "__getitem__"):
        assert not hasattr(hardyshift.DenseMatrix, name)
