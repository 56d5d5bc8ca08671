import pytest

from revbayes import bundled_dataset_path, pool, read_study_table


@pytest.fixture(scope="session")
def studies():
    return read_study_table(bundled_dataset_path())


@pytest.fixture(scope="session")
def meta_result(studies):
    return pool(studies)


def _estimate(studies, study_id):
    (study,) = [s for s in studies if s.id == study_id]
    return study.effect_estimate()


@pytest.fixture(scope="session")
def recovery(studies):
    # 95/324 deaths treatment vs 283/683 control
    return _estimate(studies, "RECOVERY")


@pytest.fixture(scope="session")
def remap_cap(studies):
    return _estimate(studies, "REMAP-CAP")


@pytest.fixture(scope="session")
def cape_covid(studies):
    return _estimate(studies, "CAPE COVID")


@pytest.fixture(scope="session")
def covid_steroid(studies):
    return _estimate(studies, "COVID STEROID")
