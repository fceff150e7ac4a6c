/**
 * @file
 * Dense row-major matrix used throughout the regression stack.
 *
 * Sized for this library's workloads: design matrices with a few
 * thousand rows and a few dozen columns. No expression templates; the
 * factorization in cholesky.hpp does the heavy lifting.
 */
#ifndef CHAOS_LINALG_MATRIX_HPP
#define CHAOS_LINALG_MATRIX_HPP

#include <cstddef>
#include <vector>

namespace chaos {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() : numRows(0), numCols(0) {}

    /** @param rows Row count. @param cols Column count (zero-filled). */
    Matrix(size_t rows, size_t cols)
        : numRows(rows), numCols(cols), data(rows * cols, 0.0)
    {}

    /** Build from nested initializer data (rows of equal width). */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    /** Identity matrix of order @p n. */
    static Matrix identity(size_t n);

    /** Row count. */
    size_t rows() const { return numRows; }
    /** Column count. */
    size_t cols() const { return numCols; }

    /** Mutable element access (row, col); bounds-checked via panic. */
    double &at(size_t r, size_t c);
    /** Const element access (row, col); bounds-checked via panic. */
    double at(size_t r, size_t c) const;

    /** Unchecked element access for hot loops. */
    double &operator()(size_t r, size_t c)
    {
        return data[r * numCols + c];
    }
    /** Unchecked const element access for hot loops. */
    double operator()(size_t r, size_t c) const
    {
        return data[r * numCols + c];
    }

    /** Pointer to the start of row @p r (contiguous, numCols wide). */
    double *rowPtr(size_t r) { return data.data() + r * numCols; }
    /** Const pointer to the start of row @p r. */
    const double *rowPtr(size_t r) const
    {
        return data.data() + r * numCols;
    }

    /** Copy of row @p r as a vector. */
    std::vector<double> row(size_t r) const;

    /** Copy of column @p c as a vector. */
    std::vector<double> column(size_t c) const;

    /** Set column @p c from @p values (must match row count). */
    void setColumn(size_t c, const std::vector<double> &values);

    /** Transposed copy. */
    Matrix transposed() const;

    /** Matrix product this * other; dimensions must agree. */
    Matrix multiply(const Matrix &other) const;

    /** Matrix-vector product this * v. */
    std::vector<double> multiply(const std::vector<double> &v) const;

    /**
     * Gram matrix X^T X (symmetric, cols x cols); computed directly
     * without materializing the transpose.
     */
    Matrix gram() const;

    /** X^T y for a target vector @p y of length rows(). */
    std::vector<double> transposeTimes(const std::vector<double> &y) const;

    /** Alias of gram(): X^T X in one pass over the rows. */
    Matrix transposeTimesSelf() const { return gram(); }

    /**
     * Fused normal-equation inputs: computes X^T X and X^T y in a
     * single pass over the rows (half the memory traffic of calling
     * gram() and transposeTimes() separately). Used by the stepwise
     * and MARS refits, where Gram construction dominates.
     *
     * @param y Target vector of length rows().
     * @param xty Receives X^T y (resized to cols()).
     */
    Matrix transposeTimesSelf(const std::vector<double> &y,
                              std::vector<double> &xty) const;

    /**
     * New matrix keeping only the listed columns, in the given order.
     * Used pervasively by feature selection.
     */
    Matrix selectColumns(const std::vector<size_t> &cols) const;

    /** New matrix keeping only the listed rows, in the given order. */
    Matrix selectRows(const std::vector<size_t> &rows) const;

    /** Append the rows of @p other (column counts must match). */
    void appendRows(const Matrix &other);

    /** Append a single row (width must match; first row sets width). */
    void appendRow(const std::vector<double> &row);

    /** Max absolute element difference against @p other. */
    double maxAbsDiff(const Matrix &other) const;

  private:
    size_t numRows;
    size_t numCols;
    std::vector<double> data;
};

} // namespace chaos

#endif // CHAOS_LINALG_MATRIX_HPP
