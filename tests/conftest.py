import pytest

from remixed.engine import exact_sweep


class OracleTable:
    """Lazily built full tables of exact polynomial values, shared per session.

    exact_sweep(8) costs a couple of seconds; unit tests slice small n out
    of the same cache the acceptance sweeps use.
    """

    def __init__(self) -> None:
        self._tables: dict[int, dict] = {}

    def table(self, n: int) -> dict:
        if n not in self._tables:
            self._tables[n] = exact_sweep(n)
        return self._tables[n]

    def value(self, ct: tuple[int, ...]):
        return self.table(sum(ct))[tuple(ct)]


@pytest.fixture(scope="session")
def oracle() -> OracleTable:
    return OracleTable()
