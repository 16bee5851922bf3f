import hardyshift


def test_export_table_has_no_duplicates_and_every_name_resolves():
    names = hardyshift.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hardyshift, name)] == []
