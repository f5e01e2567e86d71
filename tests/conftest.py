import pytest

from fusioncat import build_U, build_VLtau


@pytest.fixture(scope="session")
def u_datum():
    return build_U()


@pytest.fixture(scope="session")
def vltau_datum():
    return build_VLtau()


@pytest.fixture
def refuse_fields_above_cap(monkeypatch):
    """Fail at once if a field above the order cap starts to be built, so a
    regression fails before it allocates the field's tables."""
    from fusioncat import cyclotomic
    init = cyclotomic._OrderContext.__init__

    def guarded(ctx, n):
        if n > cyclotomic.DEFAULT_ORDER_CAP:
            raise AssertionError(f"Q(zeta_{n}) built above the order cap")
        init(ctx, n)
    monkeypatch.setattr(cyclotomic._OrderContext, "__init__", guarded)
