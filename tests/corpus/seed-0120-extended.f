program fuzz120
      implicit none
      integer n
      parameter (n = 8)
      integer i, j, k, t, t2, t3
      real a(n), b(n), c(n, n, n)
      real s
      do j = 1, n
        a(j) = a(j) + a(j) * 6.0
      enddo
      do k = 1, n
        b(k - 1) = 1.0
      enddo
      do j = 1, n
        a(j + 2) = b(j + 1) * 6.0
      enddo
      end
