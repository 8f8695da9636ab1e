import pytest

from mckp import Instance

from helpers import APPENDIX_CATEGORIES


@pytest.fixture
def appendix() -> Instance:
    return Instance(APPENDIX_CATEGORIES, budget=4.0)


@pytest.fixture
def appendix_b5() -> Instance:
    return Instance(APPENDIX_CATEGORIES, budget=5.0)
