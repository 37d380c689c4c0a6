program fuzz427
      implicit none
      integer n
      parameter (n = 8)
      integer i, j, k, t, t2, t3
      real a(n, n, n)
      real s
      do k = 1, n
        a(1, j + 1, k + 1) = a(3, j + 2, k - 1) * 6.0
      enddo
      end
