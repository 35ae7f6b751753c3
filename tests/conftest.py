import sys

import pytest


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(fn, spy)`` replaces ``fn`` with ``spy`` in every ``memlogic``
    module that binds it by name (its own and each that imported it), so a spy
    sees every call whichever module makes it; undone after the test."""
    def patch(fn, spy):
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "memlogic" or name.startswith("memlogic.")):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
    return patch
